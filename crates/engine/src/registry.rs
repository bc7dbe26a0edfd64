//! The multi-tenant standing-query runtime (DESIGN.md §11).
//!
//! A [`QueryRegistry`] turns the single-query [`Session`]
//! into a server-side registry: queries are registered against a live
//! graph, every committed [`MutationBatch`] drives all registered Δ-plans,
//! and structurally identical queries are backed by **one shared session**
//! so their Δ-walks are enumerated once per batch and fanned out.
//!
//! Sharing is keyed on plan equality ([`CompiledProgram::same_plan`],
//! which leaves declared names out) plus the registration epoch (the
//! number of batches committed so far): two queries share a backing
//! session iff they are execution-equivalent *and* started observing the
//! graph at the same point in the mutation history. Compilation and
//! session execution are fully deterministic, so the shared session's
//! dynamic state is byte-identical to what each member's isolated session
//! would compute (`crates/engine/tests/serve_equivalence.rs` pins this).
//!
//! The registry keeps no graph of its own beside the groups: while a group
//! is live its session holds the graph, and while none is, the registry
//! holds one bare [`ClusterGraph`] that committed batches advance.
//!
//! Admission control is a [`ServeLimits`]: registrations beyond
//! `max_queries` and batches larger than `max_batch_edges` are rejected
//! up front; `batch_budget_ms` is advisory (a deadline-miss is counted,
//! never acted on, because time-based eviction would make results depend
//! on wall clock).

use crate::config::EngineConfig;
use crate::durability::DurabilityKind;
use crate::graph::{ClusterGraph, GraphInput};
use crate::session::{EngineError, Session};
use itg_compiler::{compile_source, CompiledProgram, WalkQuery};
use itg_gsa::{Value, VertexId};
use itg_store::MutationBatch;
use std::collections::BTreeMap;
use std::fmt;

/// Admission-control limits for a registry (all enforced at the registry
/// boundary, never inside a running superstep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeLimits {
    /// Maximum concurrently registered queries; further registrations are
    /// rejected with [`RegistryError::AtCapacity`].
    pub max_queries: usize,
    /// Maximum mutations per committed batch; larger batches are rejected
    /// with [`RegistryError::BatchTooLarge`] before any state changes.
    pub max_batch_edges: usize,
    /// Advisory per-batch wall-clock budget in milliseconds. A commit
    /// that exceeds it still completes (aborting mid-batch would leave
    /// queries at different epochs) but bumps the `serve/deadline_miss`
    /// counter and flags the [`CommitStats`].
    pub batch_budget_ms: Option<u64>,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_queries: 1024,
            max_batch_edges: 1 << 20,
            batch_budget_ms: None,
        }
    }
}

/// Handle for one registered query. Ids are never reused within a
/// registry's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Registry-boundary errors.
#[derive(Debug)]
pub enum RegistryError {
    /// `max_queries` registered queries already present.
    AtCapacity { max: usize },
    /// The batch exceeds `max_batch_edges`.
    BatchTooLarge { len: usize, max: usize },
    /// The program failed to compile, or the engine rejected the session.
    Engine(EngineError),
    /// No registered query with this id.
    UnknownQuery(QueryId),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::AtCapacity { max } => {
                write!(f, "registry at capacity ({max} queries)")
            }
            RegistryError::BatchTooLarge { len, max } => {
                write!(f, "batch of {len} mutations exceeds the {max} limit")
            }
            RegistryError::Engine(e) => write!(f, "{e}"),
            RegistryError::UnknownQuery(id) => write!(f, "unknown query {id}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<EngineError> for RegistryError {
    fn from(e: EngineError) -> RegistryError {
        RegistryError::Engine(e)
    }
}

/// What one [`QueryRegistry::commit`] did.
#[derive(Debug, Clone)]
pub struct CommitStats {
    /// Batch sequence number (1-based; equals the epoch after the commit).
    pub epoch: u64,
    /// Share groups whose Δ-plan ran (= number of plan executions).
    pub groups_run: usize,
    /// Registered queries served by those runs.
    pub queries_served: usize,
    /// Fan-out beyond the first member per group: `queries_served −
    /// groups_run`. This is what the `share/hit` counter accumulates.
    pub share_hits: u64,
    /// Wall-clock of the whole commit, milliseconds.
    pub elapsed_ms: u64,
    /// Whether `batch_budget_ms` was exceeded (advisory; see
    /// [`ServeLimits::batch_budget_ms`]).
    pub over_budget: bool,
}

/// One shared backing session and the queries subscribed to it; every
/// member's program is the same plan as `session.program`.
struct ShareGroup {
    /// Batches committed before this group's session was built. Members
    /// registered at different epochs have observed different mutation
    /// histories and must not share state.
    epoch: u64,
    session: Session,
    members: Vec<QueryId>,
}

struct Member {
    /// Index into `groups`; stable because groups are only pushed, and a
    /// drained group's slot stays behind, empty.
    group: usize,
    /// The member's own compiled program, kept for name resolution: the
    /// shared session addresses state by index, but this member may use
    /// different declared names than the group leader.
    program: CompiledProgram,
    name: String,
}

/// The multi-tenant standing-query registry. See the module docs for the
/// sharing model and DESIGN.md §11 for the worked example.
pub struct QueryRegistry {
    cfg: EngineConfig,
    limits: ServeLimits,
    /// The graph while no group is live: one partition, IO not recorded.
    /// `None` while the live groups' sessions hold the graph.
    idle: Option<ClusterGraph>,
    /// Share groups by slot; a drained group's slot is `None`.
    groups: Vec<Option<ShareGroup>>,
    members: BTreeMap<QueryId, Member>,
    next_id: u64,
    /// Batches committed so far.
    epoch: u64,
    /// One walk query of each distinct shape ever registered (monotonic,
    /// matching the `share/unique_subplans` counter).
    walk_shapes: Vec<WalkQuery>,
    share_hits_total: u64,
    obs: RegistryObs,
}

/// Counter handles for the `serve/*` and `share/*` families (no-ops when
/// the recorder is disabled; see DESIGN.md §11.5 for the glossary).
struct RegistryObs {
    register: itg_obs::CounterHandle,
    unregister: itg_obs::CounterHandle,
    commit: itg_obs::CounterHandle,
    reject: itg_obs::CounterHandle,
    deadline_miss: itg_obs::CounterHandle,
    share_hit: itg_obs::CounterHandle,
    unique_subplans: itg_obs::CounterHandle,
}

impl RegistryObs {
    fn new(rec: &itg_obs::Recorder) -> RegistryObs {
        RegistryObs {
            register: rec.counter("serve/register"),
            unregister: rec.counter("serve/unregister"),
            commit: rec.counter("serve/commit"),
            reject: rec.counter("serve/reject"),
            deadline_miss: rec.counter("serve/deadline_miss"),
            share_hit: rec.counter("share/hit"),
            unique_subplans: rec.counter("share/unique_subplans"),
        }
    }
}

impl QueryRegistry {
    /// A registry over an initial graph. `cfg` is the template every
    /// backing session is built from (machines, superstep cap, observer —
    /// identical for all queries so shared execution is well-defined);
    /// `input.undirected` decides how mutations are mirrored, exactly as
    /// it would for an isolated session.
    pub fn new(input: &GraphInput, cfg: EngineConfig, limits: ServeLimits) -> QueryRegistry {
        let unrecorded = itg_obs::Recorder::disabled();
        let graph =
            ClusterGraph::load_with_obs(input, 1, cfg.buffer_pool_bytes, cfg.page_size, &unrecorded);
        let obs = RegistryObs::new(&cfg.obs);
        QueryRegistry {
            idle: Some(graph),
            groups: Vec::new(),
            members: BTreeMap::new(),
            next_id: 0,
            epoch: 0,
            walk_shapes: Vec::new(),
            share_hits_total: 0,
            limits,
            obs,
            cfg,
        }
    }

    /// The graph: the idle graph, or the one every live group's session
    /// holds (they all took the same batches).
    fn graph(&self) -> &ClusterGraph {
        let live = || self.groups.iter().flatten().next().map(|g| &g.session.graph);
        self.idle.as_ref().or_else(live).expect("the idle graph or a live group")
    }

    /// The current graph as a deterministic [`GraphInput`]
    /// ([`ClusterGraph::current_input`]). A fresh session built from this
    /// input is the isolated-semantics baseline for a query registered
    /// *now* — late registrations observe the current graph as their
    /// snapshot 0, exactly as an isolated session constructed at this
    /// moment would.
    pub fn current_input(&self) -> GraphInput {
        self.graph().current_input()
    }

    /// Vertices in the current graph.
    pub fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    /// Register a standing query from `L_NGA` source. Compiles, and either
    /// joins an existing share group (the same plan, the same epoch) or
    /// builds a new backing session over the current graph and runs its
    /// one-shot plan. Results are queryable immediately. A program no
    /// commit could refresh (its Initialize reads a degree) is refused,
    /// and so is every query of a registry whose template is durable.
    pub fn register(&mut self, name: &str, src: &str) -> Result<QueryId, RegistryError> {
        if !matches!(self.cfg.durability, DurabilityKind::None) {
            let why = "a standing query cannot be durable: no registry recovers its logs";
            return Err(EngineError::Unsupported(why.into()).into());
        }
        if self.members.len() >= self.limits.max_queries {
            self.obs.reject.add(1);
            return Err(RegistryError::AtCapacity {
                max: self.limits.max_queries,
            });
        }
        let program = compile_source(src).map_err(EngineError::Compile)?;
        Session::check_refreshable(&program)?;
        let group = match self.groups.iter().position(|g| {
            g.as_ref()
                .is_some_and(|g| g.epoch == self.epoch && g.session.program.same_plan(&program))
        }) {
            Some(i) => i,
            None => {
                let input = self.current_input();
                let mut session = crate::builder::SessionBuilder::from_config(self.cfg.clone())
                    .build(program.clone(), &input)?;
                session.try_run_oneshot()?;
                // The new session holds the graph now.
                self.idle = None;
                self.groups.push(Some(ShareGroup {
                    epoch: self.epoch,
                    session,
                    members: Vec::new(),
                }));
                self.groups.len() - 1
            }
        };
        for q in &program.traverse.queries {
            if !self.walk_shapes.iter().any(|s| s.same_shape(q)) {
                self.walk_shapes.push(q.clone());
                self.obs.unique_subplans.add(1);
            }
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.groups[group].as_mut().expect("live").members.push(id);
        self.members.insert(
            id,
            Member {
                group,
                program,
                name: name.to_string(),
            },
        );
        self.obs.register.add(1);
        Ok(id)
    }

    /// Unregister a query. When the last member of a share group leaves,
    /// the backing session is dropped and its slot left empty, so other
    /// members' group indexes remain valid. The last live group hands its
    /// graph to the registry as the idle graph.
    pub fn unregister(&mut self, id: QueryId) -> Result<(), RegistryError> {
        let member = self
            .members
            .remove(&id)
            .ok_or(RegistryError::UnknownQuery(id))?;
        let slot = &mut self.groups[member.group];
        let group = slot.as_mut().expect("a member's group is live");
        group.members.retain(|&m| m != id);
        if group.members.is_empty() {
            let drained = slot.take().expect("live");
            if self.groups.iter().all(Option::is_none) {
                self.idle = Some(drained.session.graph);
            }
        }
        self.obs.unregister.add(1);
        Ok(())
    }

    /// Commit a mutation batch: every holder of the graph (the idle graph,
    /// or every live group's session) takes it, then every live share
    /// group's Δ-plan runs once, serving all members. A group whose refresh
    /// fails does not stop the others; the first error is returned after
    /// all have run. Rejected batches (over `max_batch_edges`) change
    /// nothing.
    pub fn commit(&mut self, batch: &MutationBatch) -> Result<CommitStats, RegistryError> {
        if batch.len() > self.limits.max_batch_edges {
            self.obs.reject.add(1);
            return Err(RegistryError::BatchTooLarge {
                len: batch.len(),
                max: self.limits.max_batch_edges,
            });
        }
        let start = std::time::Instant::now();
        if let Some(graph) = &mut self.idle {
            graph.apply_batch(batch);
        }
        for group in self.groups.iter_mut().flatten() {
            group.session.apply_mutations(batch);
        }
        self.epoch += 1;
        let (mut groups_run, mut queries_served, mut first_err) = (0, 0, None);
        for group in self.groups.iter_mut().flatten() {
            if let Err(e) = group.session.try_run_incremental() {
                first_err.get_or_insert(e);
                continue;
            }
            groups_run += 1;
            queries_served += group.members.len();
        }
        if let Some(e) = first_err {
            return Err(e.into());
        }
        let share_hits = (queries_served - groups_run) as u64;
        self.share_hits_total += share_hits;
        self.obs.share_hit.add(share_hits);
        self.obs.commit.add(1);
        let elapsed_ms = start.elapsed().as_millis() as u64;
        let over_budget = self.limits.batch_budget_ms.is_some_and(|ms| elapsed_ms > ms);
        if over_budget {
            self.obs.deadline_miss.add(1);
        }
        Ok(CommitStats {
            epoch: self.epoch,
            groups_run,
            queries_served,
            share_hits,
            elapsed_ms,
            over_budget,
        })
    }

    fn member(&self, id: QueryId) -> Result<&Member, RegistryError> {
        self.members.get(&id).ok_or(RegistryError::UnknownQuery(id))
    }

    fn group_session(&self, id: QueryId) -> Result<&Session, RegistryError> {
        let member = self.member(id)?;
        Ok(&self.groups[member.group].as_ref().expect("live").session)
    }

    /// A query's global accumulator value by *its own* declared name (the
    /// shared session may have been built from a member with different
    /// names; indexes are what's shared).
    pub fn global_value(&self, id: QueryId, name: &str) -> Result<Value, RegistryError> {
        let member = self.member(id)?;
        let idx = member
            .program
            .symbols
            .global_index(name)
            .ok_or_else(|| RegistryError::Engine(EngineError::UnknownAttr(name.to_string())))?;
        let session = self.group_session(id)?;
        let leader_name = &session.program.symbols.globals[idx].name;
        Ok(session.global_value(leader_name, None)?)
    }

    /// A query's vertex attribute value by its own declared name.
    pub fn attr_value(&self, id: QueryId, v: VertexId, name: &str) -> Result<Value, RegistryError> {
        let member = self.member(id)?;
        let idx = member
            .program
            .symbols
            .attr_index(name)
            .ok_or_else(|| RegistryError::Engine(EngineError::UnknownAttr(name.to_string())))?;
        let session = self.group_session(id)?;
        let leader_name = &session.program.symbols.attrs[idx].name;
        Ok(session.attr_value(v, leader_name)?)
    }

    /// A query's full attribute column by its own declared name.
    pub fn attr_column(&self, id: QueryId, name: &str) -> Result<Vec<Value>, RegistryError> {
        let member = self.member(id)?;
        let idx = member
            .program
            .symbols
            .attr_index(name)
            .ok_or_else(|| RegistryError::Engine(EngineError::UnknownAttr(name.to_string())))?;
        let session = self.group_session(id)?;
        let leader_name = &session.program.symbols.attrs[idx].name;
        Ok(session.attr_column(leader_name)?)
    }

    /// The query's dynamic state image — partition stores, global
    /// history, superstep counts — the byte-equality surface the sharing
    /// correctness tests compare against isolated sessions. Name-free, so
    /// alpha-renamed members of one group report identical images.
    pub fn dynamic_state_image(&self, id: QueryId) -> Result<Vec<u8>, RegistryError> {
        Ok(self.group_session(id)?.dynamic_state_image())
    }

    /// The member's registered display name.
    pub fn query_name(&self, id: QueryId) -> Result<&str, RegistryError> {
        Ok(&self.member(id)?.name)
    }

    /// The member's own compiled program (for symbol inspection).
    pub fn query_program(&self, id: QueryId) -> Result<&CompiledProgram, RegistryError> {
        Ok(&self.member(id)?.program)
    }

    /// Currently registered query count.
    pub fn num_queries(&self) -> usize {
        self.members.len()
    }

    /// Live share groups (distinct backing sessions).
    pub fn num_groups(&self) -> usize {
        self.groups.iter().flatten().count()
    }

    /// Distinct walk shapes ever registered (the `share/unique_subplans`
    /// counter's value).
    pub fn unique_subplans(&self) -> usize {
        self.walk_shapes.len()
    }

    /// Total `share/hit` fan-outs across all commits.
    pub fn share_hits(&self) -> u64 {
        self.share_hits_total
    }

    /// Batches committed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The admission limits in force.
    pub fn limits(&self) -> &ServeLimits {
        &self.limits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itg_store::EdgeMutation;

    const DEG: &str = "Vertex (id, active, nbrs, deg: Accm<long, SUM>)
         Initialize (u): { u.active = true; }
         Traverse (u): { For v in u.nbrs { v.deg.Accumulate(1); } }
         Update (u): { }";

    fn reg() -> QueryRegistry {
        let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        QueryRegistry::new(&input, EngineConfig::default(), ServeLimits::default())
    }

    #[test]
    fn identical_queries_share_one_group() {
        let mut r = reg();
        let a = r.register("a", DEG).unwrap();
        let b = r.register("b", DEG).unwrap();
        assert_eq!(r.num_queries(), 2);
        assert_eq!(r.num_groups(), 1);
        let s = r
            .commit(&MutationBatch::new(vec![EdgeMutation::insert(1, 3)]))
            .unwrap();
        assert_eq!(s.groups_run, 1);
        assert_eq!(s.queries_served, 2);
        assert_eq!(s.share_hits, 1);
        assert_eq!(
            r.global_value(a, "deg").ok(),
            r.global_value(b, "deg").ok()
        );
        assert_eq!(
            r.dynamic_state_image(a).unwrap(),
            r.dynamic_state_image(b).unwrap()
        );
    }

    #[test]
    fn attr_value_of_an_unknown_vertex_is_an_error() {
        let mut r = reg();
        let q = r.register("a", DEG).unwrap();
        assert!(matches!(
            r.attr_value(q, 4, "active"),
            Err(RegistryError::Engine(EngineError::UnknownVertex(4)))
        ));
        assert!(r.attr_value(q, 3, "active").is_ok());
    }

    #[test]
    fn capacity_and_batch_limits_reject() {
        let input = GraphInput::undirected(vec![(0, 1), (1, 2)]);
        let limits = ServeLimits {
            max_queries: 1,
            max_batch_edges: 2,
            batch_budget_ms: None,
        };
        let mut r = QueryRegistry::new(&input, EngineConfig::default(), limits);
        r.register("a", DEG).unwrap();
        assert!(matches!(
            r.register("b", DEG),
            Err(RegistryError::AtCapacity { max: 1 })
        ));
        let big = MutationBatch::new(vec![
            EdgeMutation::insert(0, 2),
            EdgeMutation::insert(0, 3),
            EdgeMutation::insert(0, 4),
        ]);
        assert!(matches!(
            r.commit(&big),
            Err(RegistryError::BatchTooLarge { len: 3, max: 2 })
        ));
        // The rejected batch changed nothing.
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.current_input().edges.len(), 2);
    }

    #[test]
    fn rejected_batch_leaves_edge_multiset_and_results_untouched() {
        // A ServeLimits rejection must be a true no-op: the edge multiset,
        // the backing sessions, and every later commit behave exactly as
        // if the oversized batch had never been offered.
        let input = GraphInput::undirected(vec![(0, 1), (1, 2)]);
        let limits = ServeLimits {
            max_queries: 8,
            max_batch_edges: 2,
            batch_budget_ms: None,
        };
        let mut r = QueryRegistry::new(&input, EngineConfig::default(), limits.clone());
        let q = r.register("a", DEG).unwrap();
        r.commit(&MutationBatch::new(vec![EdgeMutation::insert(2, 3)]))
            .unwrap();
        let edges_before = r.current_input().edges.clone();
        let image_before = r.dynamic_state_image(q).unwrap();

        let big = MutationBatch::new(vec![
            EdgeMutation::insert(5, 6),
            EdgeMutation::delete(0, 1),
            EdgeMutation::insert(6, 7),
        ]);
        assert!(matches!(
            r.commit(&big),
            Err(RegistryError::BatchTooLarge { len: 3, max: 2 })
        ));
        assert_eq!(
            r.current_input().edges,
            edges_before,
            "rejected batch must not touch the edge multiset"
        );
        assert_eq!(r.dynamic_state_image(q).unwrap(), image_before);

        // Lockstep with a registry that never saw the rejection: the next
        // in-limit commit lands on identical state.
        let mut fresh = QueryRegistry::new(&input, EngineConfig::default(), limits);
        let fq = fresh.register("a", DEG).unwrap();
        fresh
            .commit(&MutationBatch::new(vec![EdgeMutation::insert(2, 3)]))
            .unwrap();
        let small = MutationBatch::new(vec![EdgeMutation::insert(3, 4)]);
        r.commit(&small).unwrap();
        fresh.commit(&small).unwrap();
        assert_eq!(r.epoch(), fresh.epoch());
        assert_eq!(
            r.dynamic_state_image(q).unwrap(),
            fresh.dynamic_state_image(fq).unwrap(),
            "post-rejection commit diverged from the rejection-free history"
        );
    }

    #[test]
    fn unregister_drops_group_when_empty() {
        let mut r = reg();
        let a = r.register("a", DEG).unwrap();
        let b = r.register("b", DEG).unwrap();
        r.unregister(a).unwrap();
        assert_eq!(r.num_groups(), 1);
        r.unregister(b).unwrap();
        assert_eq!(r.num_groups(), 0);
        assert!(matches!(
            r.global_value(a, "deg"),
            Err(RegistryError::UnknownQuery(_))
        ));
    }

    #[test]
    fn late_registration_observes_current_graph() {
        let mut r = reg();
        r.commit(&MutationBatch::new(vec![EdgeMutation::insert(3, 4)]))
            .unwrap();
        let q = r.register("late", DEG).unwrap();
        // `deg` is a vertex accumulator, not a global.
        assert!(r.global_value(q, "deg").is_err());
        let col = r.attr_column(q, "active").unwrap();
        assert_eq!(col.len(), 5);
    }

    #[test]
    fn a_query_no_commit_can_refresh_is_refused_at_registration() {
        let mut r = reg();
        let plain = r.register("plain", DEG).unwrap();
        let degree_init = "Vertex (id, active, nbrs, degree, d: long)
             Initialize (u): { u.active = true; u.d = u.degree; }
             Traverse (u): { }
             Update (u): { }";
        match r.register("degree", degree_init) {
            Err(RegistryError::Engine(EngineError::Unsupported(m))) => {
                assert!(m.contains("Initialize reads degrees"), "{m}")
            }
            other => panic!("registered a query no commit can refresh: {other:?}"),
        }
        assert_eq!((r.num_queries(), r.num_groups(), r.unique_subplans()), (1, 1, 1));
        // The refusal left nothing behind: both commits land as they do in
        // a registry that never saw the refused query.
        let mut fresh = reg();
        let twin = fresh.register("plain", DEG).unwrap();
        for (epoch, (s, d)) in [(1, (1, 3)), (2, (0, 3))] {
            let batch = MutationBatch::new(vec![EdgeMutation::insert(s, d)]);
            let stats = r.commit(&batch).unwrap();
            assert_eq!((stats.epoch, stats.groups_run, stats.queries_served), (epoch, 1, 1));
            fresh.commit(&batch).unwrap();
        }
        let image = |reg: &QueryRegistry, q| reg.dynamic_state_image(q).unwrap();
        assert_eq!(image(&r, plain), image(&fresh, twin));
    }

    #[test]
    fn a_durable_template_refuses_every_query_before_compiling() {
        let dir = std::env::temp_dir().join(format!("itg-durable-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            durability: DurabilityKind::Wal { dir: dir.clone() },
            ..EngineConfig::default()
        };
        let input = GraphInput::undirected(vec![(0, 1), (1, 2)]);
        let mut r = QueryRegistry::new(&input, cfg, ServeLimits::default());
        for src in [DEG, "not a program"] {
            assert!(matches!(
                r.register("a", src),
                Err(RegistryError::Engine(EngineError::Unsupported(_)))
            ));
        }
        assert_eq!((r.num_queries(), r.num_groups()), (0, 0));
        assert!(!dir.exists(), "a refused registration touched the WAL directory");
        r.commit(&MutationBatch::new(vec![EdgeMutation::insert(2, 3)]))
            .unwrap();
        assert_eq!(r.num_vertices(), 4);
    }
}
