//! Failure detector: a pure, seeded per-replica health state machine.
//!
//! The router probes every replica with a lightweight `ping` on a
//! logical-clock schedule (probe cadence counted in request seqnos, not
//! wall time, so chaos campaigns stay jobs-invariant) and feeds each
//! probe result to this detector. A replica walks
//! `alive -> suspect(misses) -> dead` as probes fail, and any
//! successful probe snaps it back to `alive`; the `dead -> alive` edge
//! is reported as a revival so the router can run its recovery routine
//! (module re-teach, anti-entropy repair).
//!
//! The suspect->dead threshold is derived per replica from the detector
//! seed with splitmix64, so thresholds differ across replicas (no
//! lockstep mass declarations from one shared default) yet every run of
//! the same seed — at any `--jobs` level, or across a router restart
//! that snapshots and restores mid-suspicion — transitions identically.
//! The detector holds no clocks and does no I/O: state is data and
//! transitions are pure, which is what makes the restart-equivalence
//! property testable at all.

use stride_core::{splitmix64_mix, SPLITMIX64_GAMMA};

/// One replica's health as the detector sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Answering probes.
    Alive,
    /// Missed `misses` consecutive probes (1 <= misses < threshold).
    Suspect(u32),
    /// Missed its seeded threshold of consecutive probes; the router
    /// stops delivering to it and leaves it out of the shard floor, and
    /// repair catches it up on revival.
    Dead,
}

impl HealthState {
    /// The state as a gauge level: 0 alive, 1 suspect, 2 dead.
    pub(crate) fn level(self) -> u64 {
        match self {
            HealthState::Alive => 0,
            HealthState::Suspect(_) => 1,
            HealthState::Dead => 2,
        }
    }
}

/// What a probe result changed — the edges the router acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// No state edge crossed (alive stayed alive, suspicion deepened,
    /// dead stayed dead).
    Unchanged,
    /// First missed probe: alive -> suspect.
    Suspected,
    /// Miss count reached the replica's threshold: suspect -> dead.
    Died,
    /// A dead replica answered: dead -> alive; the router must re-teach
    /// modules and run a repair round.
    Revived,
}

/// The per-replica health table for one cluster topology.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    seed: u64,
    /// `state[shard][replica]`.
    state: Vec<Vec<HealthState>>,
}

impl FailureDetector {
    /// Builds a detector for a topology given as replicas-per-shard,
    /// with every replica initially alive.
    pub fn new(seed: u64, replicas_per_shard: &[usize]) -> FailureDetector {
        FailureDetector {
            seed,
            state: replicas_per_shard
                .iter()
                .map(|&n| vec![HealthState::Alive; n])
                .collect(),
        }
    }

    /// Consecutive missed probes after which this replica is declared
    /// dead: seeded per replica into 2..=4 so declarations are neither
    /// one-flaky-probe trigger-happy nor lockstep across the cluster.
    pub fn dead_after(&self, shard: usize, replica: usize) -> u32 {
        let key = self
            .seed
            .wrapping_add(SPLITMIX64_GAMMA)
            .wrapping_add(((shard as u64) << 8) ^ replica as u64);
        2 + (splitmix64_mix(key) % 3) as u32
    }

    /// Current health of one replica.
    pub fn state(&self, shard: usize, replica: usize) -> HealthState {
        self.state[shard][replica]
    }

    /// True when the replica is declared dead (skip it when delivering).
    pub fn is_dead(&self, shard: usize, replica: usize) -> bool {
        self.state[shard][replica] == HealthState::Dead
    }

    /// Records a missed probe (transport error or typed refusal).
    pub fn probe_missed(&mut self, shard: usize, replica: usize) -> ProbeOutcome {
        let threshold = self.dead_after(shard, replica);
        let slot = &mut self.state[shard][replica];
        match *slot {
            HealthState::Alive => {
                if threshold <= 1 {
                    *slot = HealthState::Dead;
                    ProbeOutcome::Died
                } else {
                    *slot = HealthState::Suspect(1);
                    ProbeOutcome::Suspected
                }
            }
            HealthState::Suspect(misses) => {
                let misses = misses + 1;
                if misses >= threshold {
                    *slot = HealthState::Dead;
                    ProbeOutcome::Died
                } else {
                    *slot = HealthState::Suspect(misses);
                    ProbeOutcome::Unchanged
                }
            }
            HealthState::Dead => ProbeOutcome::Unchanged,
        }
    }

    /// Records a successful probe (or any successful forwarded call —
    /// evidence of life is evidence of life regardless of the verb).
    pub fn probe_ok(&mut self, shard: usize, replica: usize) -> ProbeOutcome {
        let slot = &mut self.state[shard][replica];
        match *slot {
            HealthState::Alive => ProbeOutcome::Unchanged,
            HealthState::Suspect(_) => {
                *slot = HealthState::Alive;
                ProbeOutcome::Unchanged
            }
            HealthState::Dead => {
                *slot = HealthState::Alive;
                ProbeOutcome::Revived
            }
        }
    }

    /// Serializes the health table (one `shard replica state [misses]`
    /// line per replica, sorted) so a restarting router can resume
    /// mid-suspicion instead of forgetting accumulated misses.
    pub fn snapshot_text(&self) -> String {
        let mut out = String::new();
        for (k, row) in self.state.iter().enumerate() {
            for (r, st) in row.iter().enumerate() {
                match st {
                    HealthState::Alive => out.push_str(&format!("{k} {r} alive\n")),
                    HealthState::Suspect(m) => out.push_str(&format!("{k} {r} suspect {m}\n")),
                    HealthState::Dead => out.push_str(&format!("{k} {r} dead\n")),
                }
            }
        }
        out
    }

    /// Rebuilds a detector from [`FailureDetector::snapshot_text`]
    /// output. Replicas absent from the snapshot stay alive; lines for
    /// replicas outside the topology are rejected.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed snapshot line.
    pub fn restore_text(
        seed: u64,
        replicas_per_shard: &[usize],
        text: &str,
    ) -> Result<FailureDetector, String> {
        let mut d = FailureDetector::new(seed, replicas_per_shard);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            let (k, r, st) = match parts.as_slice() {
                [k, r, "alive"] => (k, r, HealthState::Alive),
                [k, r, "dead"] => (k, r, HealthState::Dead),
                [k, r, "suspect", m] => {
                    let m: u32 = m
                        .parse()
                        .map_err(|_| format!("bad miss count in snapshot line `{line}`"))?;
                    (k, r, HealthState::Suspect(m))
                }
                _ => return Err(format!("bad detector snapshot line `{line}`")),
            };
            let k: usize = k
                .parse()
                .map_err(|_| format!("bad shard in snapshot line `{line}`"))?;
            let r: usize = r
                .parse()
                .map_err(|_| format!("bad replica in snapshot line `{line}`"))?;
            let slot = d
                .state
                .get_mut(k)
                .and_then(|row| row.get_mut(r))
                .ok_or_else(|| format!("snapshot names unknown replica s{k}r{r}"))?;
            *slot = st;
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One probe event of a replayable schedule.
    #[derive(Clone, Copy)]
    enum Ev {
        Miss(usize, usize),
        Ok(usize, usize),
    }

    fn apply(d: &mut FailureDetector, ev: Ev) -> ProbeOutcome {
        match ev {
            Ev::Miss(k, r) => d.probe_missed(k, r),
            Ev::Ok(k, r) => d.probe_ok(k, r),
        }
    }

    #[test]
    fn thresholds_are_seeded_and_bounded() {
        let d = FailureDetector::new(0x5eed, &[2, 2, 2]);
        let mut distinct = std::collections::HashSet::new();
        for k in 0..3 {
            for r in 0..2 {
                let t = d.dead_after(k, r);
                assert!((2..=4).contains(&t), "threshold {t} out of range");
                distinct.insert(t);
                // Same seed, same replica, same threshold — every call.
                assert_eq!(t, FailureDetector::new(0x5eed, &[2, 2, 2]).dead_after(k, r));
            }
        }
        // The spread exists (not every replica shares one threshold).
        assert!(distinct.len() > 1, "all thresholds collapsed: {distinct:?}");
    }

    #[test]
    fn alive_suspect_dead_revived_walk() {
        let mut d = FailureDetector::new(7, &[1]);
        let threshold = d.dead_after(0, 0);
        assert_eq!(d.state(0, 0), HealthState::Alive);
        assert_eq!(d.probe_missed(0, 0), ProbeOutcome::Suspected);
        for m in 2..threshold {
            assert_eq!(d.probe_missed(0, 0), ProbeOutcome::Unchanged);
            assert_eq!(d.state(0, 0), HealthState::Suspect(m));
        }
        assert_eq!(d.probe_missed(0, 0), ProbeOutcome::Died);
        assert!(d.is_dead(0, 0));
        // Dead stays dead under further misses.
        assert_eq!(d.probe_missed(0, 0), ProbeOutcome::Unchanged);
        // First success after death is the revival edge.
        assert_eq!(d.probe_ok(0, 0), ProbeOutcome::Revived);
        assert_eq!(d.state(0, 0), HealthState::Alive);
        // A success mid-suspicion clears the miss count silently.
        assert_eq!(d.probe_missed(0, 0), ProbeOutcome::Suspected);
        assert_eq!(d.probe_ok(0, 0), ProbeOutcome::Unchanged);
        assert_eq!(d.state(0, 0), HealthState::Alive);
    }

    /// Satellite: seeded table-driven transitions are identical across
    /// `--jobs` (pure function of the event sequence — exercised by
    /// replaying the same schedule on worker threads) and across router
    /// restarts mid-suspicion (snapshot/restore at every cut point).
    #[test]
    fn schedules_replay_identically_across_threads_and_restarts() {
        let seed: u64 = 0x00d1_57ab;
        let topo = [2usize, 2, 2];
        // A seeded schedule long enough to cross every edge repeatedly.
        let mut x = seed;
        let schedule: Vec<Ev> = (0..96)
            .map(|_| {
                x = x.wrapping_add(SPLITMIX64_GAMMA);
                let v = splitmix64_mix(x);
                let k = (v % 3) as usize;
                let r = ((v >> 8) % 2) as usize;
                if v & 0x1_0000 == 0 {
                    Ev::Miss(k, r)
                } else {
                    Ev::Ok(k, r)
                }
            })
            .collect();

        let run_all = || {
            let mut d = FailureDetector::new(seed, &topo);
            let outcomes: Vec<ProbeOutcome> = schedule.iter().map(|&e| apply(&mut d, e)).collect();
            (outcomes, d.snapshot_text())
        };
        let (outcomes, final_snap) = run_all();

        // "Across --jobs": replay the identical schedule on 4 threads;
        // every thread must observe the same outcomes and final table.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(run_all)).collect();
            for h in handles {
                let (o, s) = h.join().unwrap();
                assert_eq!(o, outcomes);
                assert_eq!(s, final_snap);
            }
        });

        // "Across restarts mid-suspicion": cut the schedule at every
        // point, snapshot, restore into a fresh detector, replay the
        // tail — the final table must match the uninterrupted run.
        for cut in 0..=schedule.len() {
            let mut d = FailureDetector::new(seed, &topo);
            for &e in &schedule[..cut] {
                apply(&mut d, e);
            }
            let snap = d.snapshot_text();
            let mut restored = FailureDetector::restore_text(seed, &topo, &snap).unwrap();
            for &e in &schedule[cut..] {
                apply(&mut restored, e);
            }
            assert_eq!(restored.snapshot_text(), final_snap, "cut at {cut}");
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_garbage() {
        let mut d = FailureDetector::new(3, &[2, 1]);
        d.probe_missed(0, 1);
        d.probe_missed(1, 0);
        d.probe_missed(1, 0);
        d.probe_missed(1, 0);
        d.probe_missed(1, 0);
        let snap = d.snapshot_text();
        let back = FailureDetector::restore_text(3, &[2, 1], &snap).unwrap();
        assert_eq!(back.snapshot_text(), snap);
        assert!(FailureDetector::restore_text(3, &[2, 1], "0 0 bogus\n").is_err());
        assert!(FailureDetector::restore_text(3, &[2, 1], "9 0 alive\n").is_err());
        assert!(FailureDetector::restore_text(3, &[2, 1], "0 0 suspect x\n").is_err());
    }
}
