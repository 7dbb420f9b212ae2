//! Checkpoint sessions: deterministic pause/resume and what-if
//! branching over the netsim world.
//!
//! A [`Session`] owns the two halves of a paused simulation — the
//! engine's pending-event frontier ([`ResumeState`]) and the canonical
//! netsim [`WorldState`] — plus the bookkeeping that glues segments
//! together (virtual time reached, the external-tag cursor for branch
//! injections, cumulative statistics). Because both halves round-trip
//! exactly and the engine orders events by `(time, tag)`, running a
//! session in segments — saving and restoring between them, switching
//! between sequential and parallel execution at any boundary — is
//! bit-identical to one straight-through run.
//!
//! Plain and rebalancing sessions advance through one private segment
//! loop (`Session::run`), which changes the session only once the
//! whole call has succeeded.
//!
//! Branching ([`Session::branch`]) forks a divergent continuation off a
//! shared prefix: N what-if runs over a `T`-long prefix and `S`-long
//! suffixes cost `O(T + N·S)` instead of `O(N·(T+S))` — the speedup the
//! `checkpoint_study` bench quantifies.
//!
//! Snapshots are bound to their scenario by a fingerprint
//! ([`scenario_fingerprint`]) over the topology, fault script, initial
//! events, and tuning knobs; restoring a snapshot against a different
//! scenario is refused up front instead of silently diverging.

use crate::format::{
    self, Section, SECTION_ENGINE, SECTION_META, SECTION_REBALANCE, SECTION_STATS, SECTION_WORLD,
};
use crate::rebalance::{RebalanceOutcome, RebalanceSessionState};
use crate::wire::{fnv1a64, ByteReader, ByteWriter, Wire};
use crate::wire_struct;
use massf_engine::{
    external_tag, run_sequential_resumable, seed_events, try_run_parallel_resumable, EventRecord,
    LpId, ResumeState, SimTime,
};
use massf_netsim::{
    validate_net_event, NetEvent, NetWorld, NoApp, ProfileData, SharedNet, WorldState,
};
use massf_topology::MassfError;
use std::path::Path;
use std::sync::Arc;

/// Which executor a segment runs on. Determinism does not depend on the
/// choice — segments may switch modes freely at any checkpoint.
#[derive(Debug, Clone)]
pub enum ExecMode {
    /// The single-threaded reference executor.
    Sequential,
    /// The conservative parallel executor: one thread per partition of
    /// `assignment`, barrier-synchronized every `window`.
    Parallel {
        /// Node → partition map, one entry per LP.
        assignment: Vec<u32>,
        /// Barrier window; must not exceed the cut's minimum
        /// cross-partition link latency.
        window: SimTime,
    },
}

/// Deterministic digest binding a snapshot to its scenario: topology
/// shape and link constants, fault script, initial events, route-cache
/// capacity, and TCP retry budget. Two runs with equal fingerprints and
/// equal snapshots are continuations of the same simulation; a loader
/// seeing a different fingerprint refuses the restore.
pub fn scenario_fingerprint(
    shared: &SharedNet,
    initial: &[(SimTime, LpId, NetEvent)],
    route_cache_capacity: usize,
    max_retries: u32,
) -> u64 {
    let mut w = ByteWriter::new();
    shared.net.node_count().put(&mut w);
    shared.net.links.len().put(&mut w);
    for link in &shared.net.links {
        link.a.put(&mut w);
        link.b.put(&mut w);
        link.bandwidth_bps.put(&mut w);
        link.latency_ms.put(&mut w);
        link.inter_as.put(&mut w);
    }
    write_fault_script(&mut w, shared);
    initial.len().put(&mut w);
    for (at, lp, ev) in initial {
        at.put(&mut w);
        lp.put(&mut w);
        ev.put(&mut w);
    }
    route_cache_capacity.put(&mut w);
    max_retries.put(&mut w);
    fnv1a64(&w.into_inner())
}

/// Writes the fault script's events into a fingerprint, count first;
/// no script is an empty one.
fn write_fault_script(w: &mut ByteWriter, shared: &SharedNet) {
    let events = shared
        .faults
        .as_ref()
        .map_or(&[][..], |f| f.script().events());
    events.len().put(w);
    for e in events {
        e.at.put(w);
        e.kind.put(w);
    }
}

/// A container section holding what `fill` writes.
fn section(id: u32, fill: impl FnOnce(&mut ByteWriter)) -> Section {
    let mut w = ByteWriter::new();
    fill(&mut w);
    Section {
        id,
        payload: w.into_inner(),
    }
}

/// Decode a section's payload as one `T`, consuming it exactly.
fn decode_section<T: Wire>(section: &Section) -> Result<T, MassfError> {
    let mut r = ByteReader::new(&section.payload, format::section_name(section.id));
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The META section: what ties a session to its scenario and its
/// place in the run.
pub(crate) struct Meta {
    pub(crate) fingerprint: u64,
    /// Virtual time the session has executed up to.
    now: SimTime,
    /// Next tag position for externally injected (branch-suffix) events;
    /// starts after the initial events so injected tags never collide.
    next_external: u32,
}

wire_struct!(Meta {
    fingerprint,
    now,
    next_external
});

/// The STATS section: events executed across all segments so far, in
/// total and per LP.
#[derive(Clone)]
struct Stats {
    total_events: u64,
    lp_events: Vec<u64>,
}

wire_struct!(Stats {
    total_events,
    lp_events
});

/// A checkpointable simulation: world + frontier + segment bookkeeping.
pub struct Session {
    pub(crate) shared: Arc<SharedNet>,
    pub(crate) meta: Meta,
    pub(crate) resume: ResumeState<NetEvent>,
    pub(crate) world: WorldState,
    stats: Stats,
    /// Online-rebalancer state; `Some` iff the session was created with
    /// [`Session::new_rebalancing`]. Such sessions advance through
    /// [`Session::run_rebalancing`] only.
    pub(crate) rebalance: Option<RebalanceSessionState>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field(
                "fingerprint",
                &format_args!("{:#018x}", self.meta.fingerprint),
            )
            .field("now_ns", &self.meta.now.as_ns())
            .field("next_external", &self.meta.next_external)
            .field("frontier_events", &self.resume.events.len())
            .field("live_flows", &self.world.flows.len())
            .field("total_events", &self.stats.total_events)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A session at virtual time zero, seeded with `initial` events
    /// (pass `NetSimBuilder::initial_events()` to match a builder-driven
    /// run exactly — that list already includes scripted fault events).
    pub fn new(
        shared: Arc<SharedNet>,
        initial: Vec<(SimTime, LpId, NetEvent)>,
        route_cache_capacity: usize,
        max_retries: u32,
    ) -> Self {
        let lp_count = shared.lp_count();
        let meta = Meta {
            fingerprint: scenario_fingerprint(&shared, &initial, route_cache_capacity, max_retries),
            now: SimTime::ZERO,
            next_external: initial.len() as u32,
        };
        let mut events = seed_events(initial);
        // seed_events returns injection order; the frontier contract is
        // (time, tag) order. External tags are positional, so the sort
        // is deterministic.
        events.sort_unstable();
        let world = NetWorld::with_config(shared.clone(), NoApp, route_cache_capacity, max_retries)
            .export_state();
        Session {
            shared,
            meta,
            resume: ResumeState {
                events,
                counters: vec![0; lp_count],
            },
            world,
            stats: Stats {
                total_events: 0,
                lp_events: vec![0; lp_count],
            },
            rebalance: None,
        }
    }

    /// Advance the session to virtual time `end` on the chosen
    /// executor. Segment boundaries and executor switches are
    /// invisible: any segmentation reproduces the straight-through run
    /// bit for bit. An `Err` leaves the session as it was before the
    /// call, so it can be retried (e.g. with a smaller window).
    pub fn run_until(&mut self, end: SimTime, mode: &ExecMode) -> Result<(), MassfError> {
        if self.rebalance.is_some() {
            return Err(MassfError::InvalidConfig(
                "rebalancing sessions advance via run_rebalancing, not run_until \
                 (mixing executors would skip epoch-load accounting and diverge \
                 from the recorded decision trajectory)"
                    .into(),
            ));
        }
        let cut = match mode {
            ExecMode::Sequential => None,
            ExecMode::Parallel { assignment, window } => Some(Cut {
                partitions: assignment.iter().copied().max().map_or(1, |m| m + 1),
                assignment: assignment.clone(),
                window: *window,
            }),
        };
        self.run(end, cut).map(drop)
    }

    /// The one segment loop behind [`Session::run_until`] and
    /// [`Session::run_rebalancing`]: advance to `end` on one restored
    /// world (`cut` is `None`) or on the partition worlds of `cut`. A
    /// plain session's call is one segment; a rebalancing session's is
    /// cut at epoch boundaries, where the rebalancer may migrate LPs.
    /// Worlds stay resident until a migration or the end of the call,
    /// and the session changes only once the whole call has succeeded.
    pub(crate) fn run(
        &mut self,
        end: SimTime,
        mut cut: Option<Cut>,
    ) -> Result<RebalanceOutcome, MassfError> {
        if end < self.meta.now {
            return Err(MassfError::InvalidConfig(format!(
                "cannot run backwards: session is at {} ns, requested end {} ns",
                self.meta.now.as_ns(),
                end.as_ns()
            )));
        }
        let lp_count = self.shared.lp_count();
        if let Some(cut) = cut.as_ref().filter(|c| c.partitions as usize > lp_count) {
            return Err(MassfError::InvalidConfig(format!(
                "{} partitions for {lp_count} LPs: every partition needs an LP",
                cut.partitions
            )));
        }
        let mut run = RunState {
            resume: None,
            world: None,
            stats: self.stats.clone(),
            rebalance: self.rebalance.clone(),
            outcome: RebalanceOutcome::default(),
        };
        let mut worlds: Option<Vec<NetWorld<NoApp>>> = None;
        let mut now = self.meta.now;
        while now < end {
            let boundary = run
                .rebalance
                .as_ref()
                .map(|rb| rb.policy.cfg.next_boundary(now));
            let seg_end = boundary.map_or(end, |b| b.min(end));
            // End time is exclusive in the executors, so a frontier whose
            // head is at or past seg_end executes nothing: skip the
            // engine round-trip entirely (zero loads leave every decision
            // unchanged, so the fast path cannot alter the trajectory).
            let resume = run.resume.as_ref().unwrap_or(&self.resume);
            if resume.next_event_time().is_some_and(|t| t < seg_end) {
                let from = run.world.as_ref().unwrap_or(&self.world);
                let current = match (worlds.take(), &cut) {
                    (Some(w), _) => w,
                    (None, None) => vec![NetWorld::restore(self.shared.clone(), NoApp, from)?],
                    (None, Some(cut)) => (0..cut.partitions)
                        .map(|p| {
                            let shared = self.shared.clone();
                            NetWorld::restore_partition(shared, NoApp, from, &cut.assignment, p)
                        })
                        .collect::<Result<_, _>>()?,
                };
                // The executor consumes its frontier and may fail
                // mid-run: the first segment runs on a copy of the
                // session's.
                let resume = run.resume.take().unwrap_or_else(|| self.resume.clone());
                let (current, stats, frontier) = match &cut {
                    None => {
                        let mut current = current;
                        let (stats, frontier) =
                            run_sequential_resumable(&mut current[0], lp_count, resume, seg_end)?;
                        (current, stats, frontier)
                    }
                    Some(cut) => try_run_parallel_resumable(
                        current,
                        lp_count,
                        &cut.assignment,
                        resume,
                        seg_end,
                        cut.window,
                    )?,
                };
                worlds = Some(current);
                run.resume = Some(frontier);
                run.stats.total_events += stats.total_events;
                for (acc, n) in run.stats.lp_events.iter_mut().zip(&stats.lp_events) {
                    *acc += n;
                }
                if let Some(rb) = &mut run.rebalance {
                    for (acc, n) in rb.epoch_loads.iter_mut().zip(&stats.lp_events) {
                        *acc += n;
                    }
                }
                run.outcome.critical_path_events += stats.critical_path_events();
                run.outcome.windows_executed += stats.windows_executed;
                run.outcome.barrier_rounds += stats.barrier_rounds;
            }
            now = seg_end;
            let migrated = run
                .rebalance
                .as_mut()
                .filter(|_| boundary == Some(now))
                .is_some_and(|rb| rb.close_epoch(&self.shared, &mut run.outcome));
            // Flush at the end of the call and before a migration.
            // Exporting under the *old* cut and restoring under the new
            // one is the owner-filtered handoff: each LP's world state
            // moves to its new partition world, and the engine re-routes
            // the frontier's pending events by assignment when the next
            // segment starts.
            if now == end || migrated {
                if let Some(w) = worlds.take() {
                    let mut parts: Vec<WorldState> = w.iter().map(NetWorld::export_state).collect();
                    let mut world = match &cut {
                        None => parts.swap_remove(0),
                        Some(cut) => WorldState::merge_partitions(&parts, &cut.assignment)?,
                    };
                    // Restored worlds start with zeroed profiles: fold
                    // back the one they were restored from.
                    world
                        .profile
                        .merge(&run.world.as_ref().unwrap_or(&self.world).profile);
                    run.world = Some(world);
                }
            }
            if migrated {
                cut = run.rebalance.as_ref().map(|rb| rb.cut(&self.shared));
            }
        }

        // Commit.
        if let (Some(before), Some(after)) = (&self.rebalance, &run.rebalance) {
            run.outcome.epochs = after.counters.epochs - before.counters.epochs;
            run.outcome.rebalances = after.counters.rebalances - before.counters.rebalances;
            run.outcome.migrations = after.counters.migrations - before.counters.migrations;
        }
        self.meta.now = end;
        if let Some(resume) = run.resume {
            self.resume = resume;
        }
        if let Some(world) = run.world {
            self.world = world;
        }
        self.stats = run.stats;
        self.rebalance = run.rebalance;
        Ok(run.outcome)
    }

    /// Serialize the session into the versioned, checksummed snapshot
    /// container.
    pub fn encode(&self) -> Vec<u8> {
        let mut sections = vec![
            section(SECTION_META, |w| self.meta.put(w)),
            section(SECTION_ENGINE, |w| self.resume.put(w)),
            section(SECTION_WORLD, |w| self.world.put(w)),
            section(SECTION_STATS, |w| self.stats.put(w)),
        ];
        if let Some(rb) = &self.rebalance {
            sections.push(section(SECTION_REBALANCE, |w| rb.put(w)));
        }
        format::encode_container(&sections)
    }

    /// Write the session atomically to `path` (temp + fsync + rename; a
    /// crash mid-save never leaves a torn file behind).
    pub fn save(&self, path: &Path) -> Result<(), MassfError> {
        format::write_atomic(path, &self.encode())
    }

    /// Reconstruct a session from snapshot bytes. The bytes are
    /// untrusted: container framing, section checksums, frontier order,
    /// event sanity (paths must exist in the topology, hops in range),
    /// and world invariants are all verified here — corruption yields a
    /// structured error naming the failing section, never a panic. A
    /// fingerprint other than `expected_fingerprint` (compute it with
    /// [`scenario_fingerprint`] from the scenario you are restoring
    /// into) is refused as [`MassfError::InvalidConfig`].
    pub fn decode(
        shared: Arc<SharedNet>,
        expected_fingerprint: u64,
        bytes: &[u8],
    ) -> Result<Self, MassfError> {
        let lp_count = shared.lp_count();
        let sections = format::decode_container(bytes)?;

        let meta: Meta = decode_section(format::require_section(&sections, SECTION_META)?)?;
        if meta.fingerprint != expected_fingerprint {
            return Err(MassfError::InvalidConfig(format!(
                "snapshot fingerprint {:#018x} does not match scenario \
                 {expected_fingerprint:#018x}: wrong topology, script, traffic, or tuning",
                meta.fingerprint
            )));
        }

        let mut resume: ResumeState<NetEvent> =
            decode_section(format::require_section(&sections, SECTION_ENGINE)?)?;
        let corrupt = |section: &str, reason: String| MassfError::SnapshotCorrupt {
            section: section.to_owned(),
            reason,
        };
        resume
            .validate(lp_count)
            .map_err(|e| corrupt("engine", e.to_string()))?;
        for ev in &mut resume.events {
            if ev.time < meta.now {
                return Err(corrupt(
                    "engine",
                    format!(
                        "frontier event at {} ns predates the checkpoint time {} ns",
                        ev.time.as_ns(),
                        meta.now.as_ns()
                    ),
                ));
            }
            // External tags are the top of the tag space, in position
            // order: at or past the next one is a position never issued.
            if ev.tag >= external_tag(meta.next_external) {
                return Err(corrupt(
                    "engine",
                    format!(
                        "frontier event tag {:#x} claims an external position \
                         at or past {}, the next to be issued",
                        ev.tag, meta.next_external
                    ),
                ));
            }
            validate_net_event(&shared, ev.target, &mut ev.payload)?;
        }

        let world: WorldState = decode_section(format::require_section(&sections, SECTION_WORLD)?)?;
        // Dry-run restore: surface hostile world state at load time
        // rather than at first use.
        NetWorld::restore(shared.clone(), NoApp, &world)?;

        let stats: Stats = decode_section(format::require_section(&sections, SECTION_STATS)?)?;
        if stats.lp_events.len() != lp_count {
            return Err(corrupt(
                "stats",
                format!(
                    "per-LP counters cover {} LPs, network has {lp_count}",
                    stats.lp_events.len()
                ),
            ));
        }

        let rebalance = match sections.iter().find(|s| s.id == SECTION_REBALANCE) {
            None => None,
            Some(section) => {
                let rb: RebalanceSessionState = decode_section(section)?;
                rb.validate(lp_count)
                    .map_err(|e| corrupt("rebalance", e.to_string()))?;
                Some(rb)
            }
        };

        Ok(Session {
            shared,
            meta,
            resume,
            world,
            stats,
            rebalance,
        })
    }

    /// [`Session::decode`] from a file.
    pub fn load(
        path: &Path,
        shared: Arc<SharedNet>,
        expected_fingerprint: u64,
    ) -> Result<Self, MassfError> {
        Self::decode(shared, expected_fingerprint, &format::read_file(path)?)
    }

    /// Fork a what-if continuation: same prefix state, divergent
    /// future. `shared` is the branch's network handle — pass a clone of
    /// the session's own to replay the original timeline, or a handle
    /// built over the *same topology* with an extended fault script to
    /// explore one (the added faults must also appear in `suffix` as
    /// [`NetEvent::Fault`] events, mirroring what
    /// `NetSimBuilder::initial_events` does for scripted faults — only
    /// script entries at or after the checkpoint time may differ from
    /// the session's own script, or the shared prefix would diverge).
    /// `suffix` events are injected at times at or after the checkpoint
    /// and tagged after every already-issued external event, so every
    /// branch orders its inherited frontier identically.
    pub fn branch(
        &self,
        shared: Arc<SharedNet>,
        suffix: Vec<(SimTime, LpId, NetEvent)>,
    ) -> Result<Session, MassfError> {
        if shared.net.node_count() != self.shared.net.node_count()
            || shared.net.links.len() != self.shared.net.links.len()
        {
            return Err(MassfError::InvalidConfig(format!(
                "branch network has {} nodes / {} links, session has {} / {}",
                shared.net.node_count(),
                shared.net.links.len(),
                self.shared.net.node_count(),
                self.shared.net.links.len()
            )));
        }
        let mut events = self.resume.events.clone();
        let mut next_external = self.meta.next_external;
        // The branch is a different scenario; derive a fingerprint from
        // the base plus everything that diverges (suffix + script).
        let mut fp = ByteWriter::new();
        self.meta.fingerprint.put(&mut fp);
        for (at, lp, mut ev) in suffix {
            if at < self.meta.now {
                return Err(MassfError::InvalidConfig(format!(
                    "branch event at {} ns predates the checkpoint time {} ns",
                    at.as_ns(),
                    self.meta.now.as_ns()
                )));
            }
            validate_net_event(&shared, lp, &mut ev)?;
            at.put(&mut fp);
            lp.put(&mut fp);
            ev.put(&mut fp);
            events.push(EventRecord {
                time: at,
                target: lp,
                tag: external_tag(next_external),
                payload: ev,
            });
            next_external += 1;
        }
        events.sort_unstable();
        write_fault_script(&mut fp, &shared);
        Ok(Session {
            shared,
            meta: Meta {
                fingerprint: fnv1a64(&fp.into_inner()),
                now: self.meta.now,
                next_external,
            },
            resume: ResumeState {
                events,
                counters: self.resume.counters.clone(),
            },
            world: self.world.clone(),
            stats: self.stats.clone(),
            // A branch of a rebalancing session keeps rebalancing: the
            // live assignment and partial-epoch loads carry over, so the
            // branch's decision trajectory matches the trunk's up to the
            // fork and diverges only with the injected suffix.
            rebalance: self.rebalance.clone(),
        })
    }

    /// Virtual time the session has executed up to.
    pub fn now(&self) -> SimTime {
        self.meta.now
    }

    /// The scenario fingerprint this session's snapshots carry.
    pub fn fingerprint(&self) -> u64 {
        self.meta.fingerprint
    }

    /// The shared network handle the session runs over.
    pub fn shared(&self) -> Arc<SharedNet> {
        self.shared.clone()
    }

    /// Cumulative traffic profile (prefix included).
    pub fn profile(&self) -> &ProfileData {
        &self.world.profile
    }

    /// The canonical world state at the current checkpoint.
    pub fn world_state(&self) -> &WorldState {
        &self.world
    }

    /// The pending-event frontier at the current checkpoint.
    pub fn frontier(&self) -> &ResumeState<NetEvent> {
        &self.resume
    }

    /// Events executed across all segments so far.
    pub fn total_events(&self) -> u64 {
        self.stats.total_events
    }

    /// Per-LP event counts across all segments so far.
    pub fn lp_events(&self) -> &[u64] {
        &self.stats.lp_events
    }
}

/// The partition worlds of a parallel segment: `partitions` worlds, LP
/// `l` on world `assignment[l]`, barrier-synchronized every `window`.
pub(crate) struct Cut {
    pub(crate) assignment: Vec<u32>,
    pub(crate) partitions: u32,
    pub(crate) window: SimTime,
}

/// What a run changes, held apart from the session until the whole
/// call has succeeded. `None` means the session's own frontier or
/// world is still current.
struct RunState {
    resume: Option<ResumeState<NetEvent>>,
    world: Option<WorldState>,
    stats: Stats,
    rebalance: Option<RebalanceSessionState>,
    outcome: RebalanceOutcome,
}
