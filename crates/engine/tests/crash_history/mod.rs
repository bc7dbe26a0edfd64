//! One durable engine history, recorded through the crash model's
//! [`crashfs::Recorder`], and the check every crash state of it must pass
//! (DESIGN.md §9.8). Shared by `crash_states.rs`, which enumerates every
//! state, and `kill_recover.rs`, which pins a few by name.
//!
//! **The contract.** Let *a* be the number of commands acknowledged in a
//! prefix of the effect log and *s* the number whose append had started.
//! Recovery from any crash state of that prefix must succeed, and the
//! recovered `state_image()` must equal an uninterrupted oracle's after
//! *n* commands, for some *a* ≤ *n* ≤ *s*. A state without a snapshot is
//! allowed only while *a* = 0. The recovered session then finishes the
//! history — checkpoints included — in lockstep with the oracle.
#![allow(dead_code)]

#[path = "../../../store/tests/crashfs/mod.rs"]
pub mod crashfs;

use crate::common::{build_workload, mk_config, mk_input, MutationMode, Scenario};
use crashfs::{Effect, State};
use itg_algorithms::programs;
use itg_engine::{DurabilityKind, Session, SessionBuilder};
use itg_store::wal::WalOptions;
use itg_store::MutationBatch;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Segments this small rotate every record or two.
pub const TINY_WAL: WalOptions = WalOptions { segment_bytes: 96 };

/// The scenario the histories are drawn from: `batches` mutation batches,
/// the last held back as the continuation workload.
pub fn scenario(algo: &'static str, batches: usize) -> Scenario {
    Scenario {
        algo,
        machines: 2,
        threads: 2,
        seed: 0xD00D_F00D,
        batches,
        batch_size: 8,
        mutation_mode: MutationMode::Uniform,
    }
}

/// One step of a history. Every step but a checkpoint is one logged
/// command, one WAL record.
pub enum Step {
    Oneshot,
    Batch(MutationBatch),
    Incremental,
    Compact,
    Checkpoint,
}

impl Step {
    pub fn is_command(&self) -> bool {
        !matches!(self, Step::Checkpoint)
    }
}

/// The history: one-shot, then a batch and an incremental run per batch,
/// with a compaction after the second pair and a checkpoint after the
/// fifth and the tenth command. The last batch is held back.
pub fn history(sc: &Scenario) -> (Vec<Step>, MutationBatch) {
    let (_, mut batches) = build_workload(sc);
    let tail = batches.pop().expect("scenario has >= 2 batches");
    let mut cmds = vec![Step::Oneshot];
    for (i, b) in batches.into_iter().enumerate() {
        cmds.push(Step::Batch(b));
        cmds.push(Step::Incremental);
        if i == 1 {
            cmds.push(Step::Compact);
        }
    }
    let mut steps = Vec::new();
    for (i, cmd) in cmds.into_iter().enumerate() {
        steps.push(cmd);
        if i == 4 || i == 9 {
            steps.push(Step::Checkpoint);
        }
    }
    (steps, tail)
}

pub fn exec(sess: &mut Session, step: &Step) {
    match step {
        Step::Oneshot => {
            sess.run_oneshot();
        }
        Step::Batch(b) => sess.apply_mutations(b),
        Step::Incremental => {
            sess.run_incremental();
        }
        Step::Compact => sess.compact_edges(),
        Step::Checkpoint => {
            sess.checkpoint().unwrap();
        }
    }
}

fn builder(sc: &Scenario) -> SessionBuilder {
    SessionBuilder::from_config(mk_config(sc.algo, sc.machines, sc.threads))
}

fn build(sc: &Scenario, b: SessionBuilder) -> Session {
    let (base, _) = build_workload(sc);
    let src = programs::source(sc.algo).unwrap();
    b.from_source(&src, &mk_input(sc.algo, &base)).unwrap()
}

pub fn durable_session(sc: &Scenario, dir: &Path) -> Session {
    let wal = DurabilityKind::Wal {
        dir: dir.to_path_buf(),
    };
    build(sc, builder(sc).durability(wal))
}

pub fn oracle_session(sc: &Scenario) -> Session {
    build(sc, builder(sc))
}

/// The uninterrupted run's state images: `images[n]` after `n` commands,
/// and `finale` after the whole history plus the held-back batch.
pub struct Oracle {
    pub images: Vec<Vec<u8>>,
    pub finale: Vec<u8>,
}

pub fn oracle(sc: &Scenario, steps: &[Step], tail: &MutationBatch) -> Oracle {
    let mut sess = oracle_session(sc);
    let mut images = vec![sess.state_image()];
    for step in steps.iter().filter(|s| s.is_command()) {
        exec(&mut sess, step);
        images.push(sess.state_image());
    }
    sess.apply_mutations(tail);
    sess.run_incremental();
    Oracle {
        images,
        finale: sess.state_image(),
    }
}

/// Finish the history on `sess`, recovered after `n` commands: every later
/// step, checkpoints included, then the held-back batch, matching the
/// oracle after each command.
pub fn finish_in_lockstep(
    mut sess: Session,
    n: usize,
    steps: &[Step],
    tail: &MutationBatch,
    oracle: &Oracle,
    ctx: &str,
) {
    let mut done = 0;
    for step in steps {
        if done < n {
            done += usize::from(step.is_command());
            continue;
        }
        exec(&mut sess, step);
        if step.is_command() {
            done += 1;
            assert!(
                sess.state_image() == oracle.images[done],
                "{ctx}: recovered at {n}, diverged from the oracle after command {done}"
            );
        }
    }
    sess.apply_mutations(tail);
    sess.run_incremental();
    assert!(
        sess.state_image() == oracle.finale,
        "{ctx}: the continuation diverged"
    );
}

/// What recovery made of one crash state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The state holds no snapshot.
    NoSnapshot,
    /// Recovered; the oracle command counts whose image it equals (none
    /// is a divergence).
    Recovered(Vec<usize>),
}

/// A history recorded through the crash model, with its oracle.
pub struct Recorded {
    sc: Scenario,
    steps: Vec<Step>,
    tail: MutationBatch,
    pub log: Vec<Effect>,
    oracle: Oracle,
    /// Where crash states are rebuilt: `<scratch>/wal` is the durability
    /// directory, as it was `<root>/wal` when recorded.
    scratch: PathBuf,
}

/// Run the history of `algo` through a durable session whose writes the
/// crash model records, marking each command's start and ack.
pub fn record(algo: &'static str, wal: WalOptions, tag: &str) -> Recorded {
    let sc = scenario(algo, 6);
    let (steps, tail) = history(&sc);
    let root = crashfs::scratch_dir(&format!("{tag}-recorded"));
    let rec = crashfs::Recorder::new(&root);
    let durable = DurabilityKind::Wal {
        dir: root.join("wal"),
    };
    let mut sess = build(
        &sc,
        builder(&sc)
            .durability(durable)
            .durable_io(rec.clone(), wal),
    );
    let mut n = 0;
    for step in &steps {
        if step.is_command() {
            rec.mark(Effect::Started(n));
            exec(&mut sess, step);
            rec.mark(Effect::Acked(n));
            n += 1;
        } else {
            exec(&mut sess, step);
        }
    }
    drop(sess);
    let _ = std::fs::remove_dir_all(&root);
    Recorded {
        oracle: oracle(&sc, &steps, &tail),
        sc,
        steps,
        tail,
        log: rec.log(),
        scratch: crashfs::scratch_dir(&format!("{tag}-state")),
    }
}

/// Counts from [`Recorded::check_every_state`].
#[derive(Debug, Default)]
pub struct Checked {
    pub prefixes: usize,
    pub states: usize,
    pub distinct: usize,
    pub continued: usize,
}

impl Recorded {
    /// The durability directory of a rebuilt state.
    fn dir(&self) -> PathBuf {
        self.scratch.join("wal")
    }

    /// Rebuild `state`, a state after `log[..k]`, and recover from it.
    fn recover(&self, k: usize, state: &State) -> (Outcome, Option<Session>) {
        crashfs::materialize(state, &self.scratch);
        match Session::recover(self.dir()) {
            Ok(sess) => {
                let image = sess.state_image();
                let ns = self.oracle.images.iter().enumerate();
                let ns = ns.filter(|(_, o)| **o == image).map(|(n, _)| n).collect();
                (Outcome::Recovered(ns), Some(sess))
            }
            Err(e) if e.to_string().contains("holds no snapshot") => (Outcome::NoSnapshot, None),
            Err(e) => panic!(
                "{}: crash after effect {k} ({}): recovery failed: {e}\n{}",
                self.sc.algo,
                self.last_effect(k),
                describe(state)
            ),
        }
    }

    /// Assert the contract for `outcome`, a state after `log[..k]`.
    fn assert_contract(&self, k: usize, state: &State, outcome: &Outcome) -> usize {
        let (a, s) = crashfs::marks(&self.log[..k]);
        let n = match outcome {
            Outcome::NoSnapshot => (a == 0).then_some(0),
            Outcome::Recovered(ns) => ns
                .iter()
                .copied()
                .find(|&n| a as usize <= n && n <= s as usize),
        };
        n.unwrap_or_else(|| {
            panic!(
                "{}: crash after effect {k} ({}) recovered {outcome:?}, but {a} commands \
                 were acked and {s} started\n{}",
                self.sc.algo,
                self.last_effect(k),
                describe(state)
            )
        })
    }

    /// Recover from `state`, a state after `log[..k]`, and assert the
    /// contract; with `finish`, the recovered session also finishes the
    /// history in lockstep.
    fn check(&self, k: usize, state: &State, finish: bool) -> Outcome {
        let (outcome, sess) = self.recover(k, state);
        let n = self.assert_contract(k, state, &outcome);
        if let (true, Some(sess)) = (finish, sess) {
            let ctx = format!("{}: crash after effect {k}", self.sc.algo);
            finish_in_lockstep(sess, n, &self.steps, &self.tail, &self.oracle, &ctx);
        }
        outcome
    }

    /// Every crash state after `log[..k]`, checked against the contract;
    /// the first keeps every effect and also finishes the history.
    pub fn check_prefix(&self, k: usize) -> Vec<Outcome> {
        let states = crashfs::states_after(&self.log[..k]);
        let checked = states.iter().enumerate();
        checked.map(|(i, state)| self.check(k, state, i == 0)).collect()
    }

    /// The contract at every crash state of every prefix of the log. Equal
    /// states are recovered once; the state keeping every effect of each
    /// prefix also finishes the history in lockstep, once per distinct
    /// state.
    pub fn check_every_state(&self) -> Checked {
        let mut seen: HashMap<u64, Outcome> = HashMap::new();
        let mut continued = std::collections::HashSet::new();
        let mut c = Checked::default();
        crashfs::crash_states(&self.log, |k, states| {
            c.prefixes += 1;
            for (i, state) in states.iter().enumerate() {
                c.states += 1;
                let fp = crashfs::fingerprint(state);
                let finish = i == 0 && continued.insert(fp);
                match seen.get(&fp) {
                    Some(outcome) if !finish => {
                        self.assert_contract(k, state, outcome);
                    }
                    _ => {
                        seen.insert(fp, self.check(k, state, finish));
                    }
                }
            }
        });
        c.distinct = seen.len();
        c.continued = continued.len();
        c
    }

    /// `log[k - 1]`, the effect a crash after `log[..k]` follows, with a
    /// write's bytes left out.
    fn last_effect(&self, k: usize) -> String {
        match k.checked_sub(1).map(|i| &self.log[i]) {
            None => "nothing".into(),
            Some(Effect::Write { path, bytes }) => {
                format!("Write({}, {} B)", path.display(), bytes.len())
            }
            Some(e) => format!("{e:?}"),
        }
    }

    /// The prefix length just after the first effect `pick` accepts at or
    /// after `from`.
    pub fn after(&self, from: usize, pick: impl Fn(&Effect) -> bool) -> usize {
        from + 1
            + self.log[from..]
                .iter()
                .position(pick)
                .expect("no such effect")
    }

    /// The prefix length just after the sync that made WAL record `lsn`
    /// durable.
    pub fn synced(&self, lsn: u64) -> usize {
        let written = self.after(0, |e| record_lsn(e) == Some(lsn));
        self.after(written, |e| matches!(e, Effect::Sync(p) if is_segment(p)))
    }

    /// The prefix length just after WAL record `lsn` was written, before
    /// its sync.
    pub fn written(&self, lsn: u64) -> usize {
        self.after(0, |e| record_lsn(e) == Some(lsn))
    }
}

impl Drop for Recorded {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

pub fn is_segment(p: &Path) -> bool {
    p.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("wal-"))
}

/// The LSN of the WAL record a write carries: after the 4-byte length, the
/// magic, version and tag, 8 bytes of LSN.
pub fn record_lsn(e: &Effect) -> Option<u64> {
    match e {
        Effect::Write { path, bytes } if is_segment(path) => {
            Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
        }
        _ => None,
    }
}

/// A state's files and their sizes, for a failure message.
pub fn describe(state: &State) -> String {
    let mut out = String::from("state:");
    for (p, node) in state {
        match node {
            None => out.push_str(&format!("\n  {}/", p.display())),
            Some(b) => out.push_str(&format!("\n  {} ({} B)", p.display(), b.len())),
        }
    }
    out
}
