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
//! Admission control is a [`ServeLimits`]: registrations beyond
//! `max_queries` and batches larger than `max_batch_edges` are rejected
//! up front; `batch_budget_ms` is advisory (a deadline-miss is counted,
//! never acted on, because time-based eviction would make results depend
//! on wall clock).

use crate::config::EngineConfig;
use crate::graph::GraphInput;
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

impl ServeLimits {
    /// Limits seeded from the process environment (`ITG_MAX_QUERIES`,
    /// `ITG_MAX_BATCH_EDGES`, `ITG_BATCH_BUDGET_MS`), with the same
    /// precedence story as [`EngineConfig::from_env`]: an explicit field
    /// write after this constructor overrides the environment, which
    /// overrides the default.
    pub fn from_env() -> ServeLimits {
        ServeLimits::from_env_lookup(|k| std::env::var(k).ok())
    }

    /// [`ServeLimits::from_env`] with an injectable lookup (deterministic
    /// under concurrent test execution).
    pub fn from_env_lookup(get: impl Fn(&str) -> Option<String>) -> ServeLimits {
        let mut limits = ServeLimits::default();
        let parse = |v: Option<String>| v.and_then(|s| s.trim().parse::<u64>().ok());
        if let Some(n) = parse(get("ITG_MAX_QUERIES")).filter(|&n| n >= 1) {
            limits.max_queries = n as usize;
        }
        if let Some(n) = parse(get("ITG_MAX_BATCH_EDGES")).filter(|&n| n >= 1) {
            limits.max_batch_edges = n as usize;
        }
        if let Some(ms) = parse(get("ITG_BATCH_BUDGET_MS")) {
            limits.batch_budget_ms = Some(ms);
        }
        limits
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
    /// drained group keeps its slot as a tombstone.
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
    undirected: bool,
    /// Current edge multiset (canonical orientation when undirected),
    /// maintained from consolidated committed batches so late
    /// registrations can rebuild the current graph deterministically.
    edges: BTreeMap<(VertexId, VertexId), u64>,
    num_vertices: usize,
    groups: Vec<ShareGroup>,
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
        let mut edges = BTreeMap::new();
        for &(s, d) in &input.edges {
            let key = canonical(s, d, input.undirected);
            *edges.entry(key).or_insert(0) += 1;
        }
        let obs = RegistryObs::new(&cfg.obs);
        QueryRegistry {
            undirected: input.undirected,
            edges,
            num_vertices: input.num_vertices,
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

    /// The current graph as a deterministic [`GraphInput`]: the edge
    /// multiset after every committed batch, in canonical sorted order.
    /// A fresh session built from this input is the isolated-semantics
    /// baseline for a query registered *now* — late registrations observe
    /// the current graph as their snapshot 0, exactly as an isolated
    /// session constructed at this moment would.
    pub fn current_input(&self) -> GraphInput {
        let mut list = Vec::new();
        for (&(s, d), &mult) in &self.edges {
            for _ in 0..mult {
                list.push((s, d));
            }
        }
        let mut input = if self.undirected {
            GraphInput::undirected(list)
        } else {
            GraphInput::directed(list)
        };
        input.num_vertices = input.num_vertices.max(self.num_vertices);
        input
    }

    /// Register a standing query from `L_NGA` source. Compiles, and either
    /// joins an existing share group (the same plan, the same epoch) or
    /// builds a new backing session over the current graph and runs its
    /// one-shot plan. Results are queryable immediately. A program no
    /// commit could refresh (its Initialize reads a degree) is refused.
    pub fn register(&mut self, name: &str, src: &str) -> Result<QueryId, RegistryError> {
        if self.members.len() >= self.limits.max_queries {
            self.obs.reject.add(1);
            return Err(RegistryError::AtCapacity {
                max: self.limits.max_queries,
            });
        }
        let program = compile_source(src).map_err(EngineError::Compile)?;
        Session::check_refreshable(&program)?;
        let group = match self.groups.iter().position(|g| {
            !g.members.is_empty() && g.epoch == self.epoch && g.session.program.same_plan(&program)
        }) {
            Some(i) => i,
            None => {
                let input = self.current_input();
                let mut session = crate::builder::SessionBuilder::from_config(self.cfg.clone())
                    .build(program.clone(), &input)?;
                session.try_run_oneshot()?;
                self.groups.push(ShareGroup {
                    epoch: self.epoch,
                    session,
                    members: Vec::new(),
                });
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
        self.groups[group].members.push(id);
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
    /// the backing session is dropped (the slot stays as a tombstone so
    /// other members' group indexes remain valid).
    pub fn unregister(&mut self, id: QueryId) -> Result<(), RegistryError> {
        let member = self
            .members
            .remove(&id)
            .ok_or(RegistryError::UnknownQuery(id))?;
        let group = &mut self.groups[member.group];
        group.members.retain(|&m| m != id);
        self.obs.unregister.add(1);
        Ok(())
    }

    /// Commit a mutation batch: apply it to the current edge multiset and
    /// drive every live share group's Δ-plan once, serving all members.
    /// Rejected batches (over `max_batch_edges`) change nothing.
    pub fn commit(&mut self, batch: &MutationBatch) -> Result<CommitStats, RegistryError> {
        if batch.len() > self.limits.max_batch_edges {
            self.obs.reject.add(1);
            return Err(RegistryError::BatchTooLarge {
                len: batch.len(),
                max: self.limits.max_batch_edges,
            });
        }
        let start = std::time::Instant::now();
        // Maintain the registry's edge multiset from the consolidated
        // batch as the store applies it — an insert adds a copy, a delete
        // hides every copy — so `current_input` tracks what the backing
        // sessions' graphs became.
        for m in batch.consolidated().edges() {
            let key = canonical(m.src, m.dst, self.undirected);
            self.num_vertices = self
                .num_vertices
                .max(m.src as usize + 1)
                .max(m.dst as usize + 1);
            if m.is_insert() {
                *self.edges.entry(key).or_insert(0) += 1;
            } else {
                self.edges.remove(&key);
            }
        }
        self.epoch += 1;
        let mut groups_run = 0;
        let mut queries_served = 0;
        let mut share_hits = 0u64;
        for group in &mut self.groups {
            if group.members.is_empty() {
                continue;
            }
            group.session.apply_mutations(batch);
            group.session.try_run_incremental()?;
            groups_run += 1;
            queries_served += group.members.len();
            share_hits += group.members.len() as u64 - 1;
        }
        self.share_hits_total += share_hits;
        self.obs.share_hit.add(share_hits);
        self.obs.commit.add(1);
        let elapsed_ms = start.elapsed().as_millis() as u64;
        let over_budget = self
            .limits
            .batch_budget_ms
            .is_some_and(|budget| elapsed_ms > budget);
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
        Ok(&self.groups[self.member(id)?.group].session)
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
        let session = &self.groups[member.group].session;
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
        let session = &self.groups[member.group].session;
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
        let session = &self.groups[member.group].session;
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
        self.groups.iter().filter(|g| !g.members.is_empty()).count()
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

/// Canonical key for the edge multiset: undirected graphs store each edge
/// once in (min, max) orientation — the loader mirrors — so an insert and
/// a delete of the same edge cancel regardless of the orientation they
/// arrived in.
fn canonical(s: VertexId, d: VertexId, undirected: bool) -> (VertexId, VertexId) {
    if undirected && d < s {
        (d, s)
    } else {
        (s, d)
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
    fn env_limits_parse() {
        let l = ServeLimits::from_env_lookup(|k| match k {
            "ITG_MAX_QUERIES" => Some(" 8 ".into()),
            "ITG_MAX_BATCH_EDGES" => Some("100".into()),
            "ITG_BATCH_BUDGET_MS" => Some("250".into()),
            _ => None,
        });
        assert_eq!(l.max_queries, 8);
        assert_eq!(l.max_batch_edges, 100);
        assert_eq!(l.batch_budget_ms, Some(250));
        let junk = ServeLimits::from_env_lookup(|k| {
            (k == "ITG_MAX_QUERIES").then(|| "none".into())
        });
        assert_eq!(junk.max_queries, ServeLimits::default().max_queries);
    }
}
