//! One database entry: the accumulated profiles of a `(workload, module
//! hash)` key, its text serialization, and the cross-run merge.

use std::fmt;
use std::fmt::Write as _;
use stride_profiling::{
    stride_profile_from_text, stride_profile_to_text, EdgeProfile, ProfileParseError, StrideProfile,
};

/// A profile-database failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// Filesystem trouble (message includes the path).
    Io(String),
    /// A malformed entry file.
    Parse(ProfileParseError),
    /// The entry was profiled on a different module than the one on hand:
    /// the module changed since the profile was taken.
    Stale {
        /// The workload whose entry is stale.
        workload: String,
        /// Hash the caller's module has.
        expected: u64,
        /// Hash the entry was recorded under.
        found: u64,
    },
    /// Two entries with different keys cannot merge.
    KeyMismatch(String),
    /// Input the store refuses: an unstorable workload name, or an
    /// installed state that would drop dots this store holds.
    Invalid {
        /// What was refused, e.g. `workload name`.
        what: &'static str,
        /// Why.
        detail: String,
    },
    /// The root holds a sealed segment of the earlier segmented WAL
    /// layout, whose redo records may never have been checkpointed.
    SealedSegment {
        /// The segment's file name, e.g. `wal.000000.log`.
        file: String,
    },
    /// Untrusted replication text (a delta batch, a causal context, a
    /// log image or an installed state) that failed its structural or
    /// checksum checks; it is rejected whole.
    Corrupt {
        /// What was corrupt, e.g. `log image`.
        what: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// No entry under the requested key.
    NotFound {
        /// The missing workload.
        workload: String,
        /// The missing module hash.
        module_hash: u64,
    },
    /// The operation is unsafe while the WAL holds an unrecovered tail
    /// (e.g. gc on a store opened without recovery).
    PendingWal {
        /// Why the operation was refused and how to proceed.
        detail: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(msg) => write!(f, "profile db i/o: {msg}"),
            DbError::Parse(e) => write!(f, "profile db entry: {e}"),
            DbError::Stale {
                workload,
                expected,
                found,
            } => write!(
                f,
                "stale profile for {workload}: module hash {expected:016x} \
                 but entry was profiled on {found:016x}"
            ),
            DbError::KeyMismatch(msg) => write!(f, "profile key mismatch: {msg}"),
            DbError::Invalid { what, detail } => write!(f, "invalid {what}: {detail}"),
            DbError::SealedSegment { file } => write!(
                f,
                "store holds sealed wal segment {file} from the segmented layout; \
                 recover and checkpoint it with a release that reads segments"
            ),
            DbError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            DbError::NotFound {
                workload,
                module_hash,
            } => write!(f, "no profile for {workload} @ {module_hash:016x}"),
            DbError::PendingWal { detail } => write!(f, "pending wal: {detail}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ProfileParseError> for DbError {
    fn from(e: ProfileParseError) -> Self {
        DbError::Parse(e)
    }
}

fn perr<T>(line: usize, message: impl Into<String>) -> Result<T, DbError> {
    Err(DbError::Parse(ProfileParseError {
        line,
        col: 1,
        message: message.into(),
    }))
}

/// Accumulated profiles for one `(workload, module hash)` key.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEntry {
    /// Workload name (also the file-name stem; restricted charset).
    pub workload: String,
    /// Content hash of the module the profiles were measured on
    /// ([`crate::module_hash`]).
    pub module_hash: u64,
    /// How many training runs have been merged into this entry.
    pub runs: u64,
    /// Raw per-function frequency counter tables
    /// ([`EdgeProfile::tables`]); stored module-free so the database can
    /// be read without the IR on hand.
    pub edge_tables: Vec<Vec<u64>>,
    /// Accumulated stride profile.
    pub stride: StrideProfile,
}

impl ProfileEntry {
    /// Packages one run's profiles as a fresh entry (`runs = 1`).
    pub fn from_run(
        workload: impl Into<String>,
        module_hash: u64,
        edge: &EdgeProfile,
        stride: &StrideProfile,
    ) -> Self {
        ProfileEntry {
            workload: workload.into(),
            module_hash,
            runs: 1,
            edge_tables: edge.tables().to_vec(),
            stride: stride.clone(),
        }
    }

    /// The frequency profile as an [`EdgeProfile`] again (feedback pass).
    pub fn edge_profile(&self) -> EdgeProfile {
        EdgeProfile::from_tables(self.edge_tables.clone())
    }

    /// Errors with [`DbError::Stale`] unless the entry was profiled on the
    /// module with `current_hash`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Stale`] on a hash mismatch.
    pub fn check_fresh(&self, current_hash: u64) -> Result<(), DbError> {
        if self.module_hash != current_hash {
            return Err(DbError::Stale {
                workload: self.workload.clone(),
                expected: current_hash,
                found: self.module_hash,
            });
        }
        Ok(())
    }

    /// Merges another run (or accumulated entry) into this one: edge
    /// counters and site counters sum saturating, top-stride tables join
    /// by stride value into canonical `(count desc, stride asc)` order,
    /// `runs` adds up.
    ///
    /// The operation is commutative and associative **byte-for-byte**
    /// (saturating addition is itself associative, and the canonical top
    /// order is total), and conserves every counter total (saturating at
    /// `u64::MAX`). Replication relies on this: replicas of a shard apply
    /// the same set of merge deltas in whatever order the network
    /// delivers them and must converge to identical store bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::KeyMismatch`] when workloads or module hashes
    /// differ (profiles of different programs must not be blended), also
    /// covering edge-table shape drift, which a matching content hash
    /// rules out.
    pub fn merge(&mut self, other: &ProfileEntry) -> Result<(), DbError> {
        if self.workload != other.workload {
            return Err(DbError::KeyMismatch(format!(
                "cannot merge profile of {} into {}",
                other.workload, self.workload
            )));
        }
        if self.module_hash != other.module_hash {
            return Err(DbError::Stale {
                workload: self.workload.clone(),
                expected: self.module_hash,
                found: other.module_hash,
            });
        }
        if self.edge_tables.len() != other.edge_tables.len()
            || self
                .edge_tables
                .iter()
                .zip(&other.edge_tables)
                .any(|(a, b)| a.len() != b.len())
        {
            return Err(DbError::KeyMismatch(format!(
                "edge counter spaces differ for {} despite equal module hash",
                self.workload
            )));
        }
        for (ours, theirs) in self.edge_tables.iter_mut().zip(&other.edge_tables) {
            for (a, b) in ours.iter_mut().zip(theirs) {
                *a = a.saturating_add(*b);
            }
        }
        self.stride.merge(&other.stride);
        self.runs = self.runs.saturating_add(other.runs);
        Ok(())
    }

    /// Total of all edge counters.
    pub fn edge_total(&self) -> u64 {
        self.edge_tables
            .iter()
            .flatten()
            .fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Serializes the entry (versioned, line-oriented, human-auditable).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# profdb v1\n");
        let _ = writeln!(out, "workload {}", self.workload);
        let _ = writeln!(out, "module {:016x}", self.module_hash);
        let _ = writeln!(out, "runs {}", self.runs);
        let _ = writeln!(out, "# edge tables funcs={}", self.edge_tables.len());
        for (i, table) in self.edge_tables.iter().enumerate() {
            let _ = writeln!(out, "table {i} len={}", table.len());
            for (e, &c) in table.iter().enumerate() {
                if c != 0 {
                    let _ = writeln!(out, "e{e} {c}");
                }
            }
        }
        out.push_str(&stride_profile_to_text(&self.stride));
        out
    }

    /// Parses an entry written by [`ProfileEntry::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Parse`] on malformed text.
    pub fn from_text(text: &str) -> Result<Self, DbError> {
        let mut lines = text.lines().enumerate();
        let mut workload: Option<String> = None;
        let mut module_hash: Option<u64> = None;
        let mut runs: Option<u64> = None;
        let mut edge_tables: Vec<Vec<u64>> = Vec::new();
        let mut stride_start: Option<usize> = None;

        match lines.next() {
            Some((_, l)) if l.trim() == "# profdb v1" => {}
            Some((_, l)) => return perr(1, format!("expected `# profdb v1`, got `{}`", l.trim())),
            None => return perr(1, "empty entry"),
        }
        for (idx, raw) in lines {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.starts_with("# stride profile") {
                stride_start = Some(idx);
                break;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(v) = line.strip_prefix("workload ") {
                let v = v.trim();
                if v.is_empty() {
                    return perr(lineno, "empty workload name");
                }
                workload = Some(v.to_string());
            } else if let Some(v) = line.strip_prefix("module ") {
                let h = u64::from_str_radix(v.trim(), 16).map_err(|_| {
                    DbError::Parse(ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: format!("bad module hash `{v}`"),
                    })
                })?;
                module_hash = Some(h);
            } else if let Some(v) = line.strip_prefix("runs ") {
                let n: u64 = v.trim().parse().map_err(|_| {
                    DbError::Parse(ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: format!("bad run count `{v}`"),
                    })
                })?;
                runs = Some(n);
            } else if let Some(rest) = line.strip_prefix("table ") {
                let (idx_s, len_s) = rest.split_once(' ').unwrap_or((rest, ""));
                let ti: usize = idx_s.parse().map_err(|_| {
                    DbError::Parse(ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: format!("bad table index `{idx_s}`"),
                    })
                })?;
                if ti != edge_tables.len() {
                    return perr(lineno, format!("table {ti} out of order"));
                }
                let len: usize = len_s
                    .trim()
                    .strip_prefix("len=")
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        DbError::Parse(ProfileParseError {
                            line: lineno,
                            col: 1,
                            message: format!("bad table length in `{line}`"),
                        })
                    })?;
                edge_tables.push(vec![0u64; len]);
            } else if line.starts_with('e') {
                let Some(table) = edge_tables.last_mut() else {
                    return perr(lineno, "counter before any `table` line");
                };
                let (e_s, c_s) = line.split_once(' ').unwrap_or((line, ""));
                let e: usize = e_s
                    .strip_prefix('e')
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        DbError::Parse(ProfileParseError {
                            line: lineno,
                            col: 1,
                            message: format!("bad counter id `{e_s}`"),
                        })
                    })?;
                if e >= table.len() {
                    return perr(lineno, format!("counter `e{e}` out of range"));
                }
                let c: u64 = c_s.trim().parse().map_err(|_| {
                    DbError::Parse(ProfileParseError {
                        line: lineno,
                        col: 1,
                        message: format!("bad count `{c_s}`"),
                    })
                })?;
                table[e] = c;
            } else {
                return perr(lineno, format!("unrecognized line `{line}`"));
            }
        }

        let Some(workload) = workload else {
            return perr(1, "entry missing `workload`");
        };
        let Some(module_hash) = module_hash else {
            return perr(1, "entry missing `module`");
        };
        let Some(runs) = runs else {
            return perr(1, "entry missing `runs`");
        };
        let stride = match stride_start {
            Some(start) => {
                let sub: String = text.lines().skip(start).map(|l| format!("{l}\n")).collect();
                stride_profile_from_text(&sub).map_err(|mut e| {
                    e.line += start; // report against the whole entry file
                    DbError::Parse(e)
                })?
            }
            None => StrideProfile::new(),
        };
        Ok(ProfileEntry {
            workload,
            module_hash,
            runs,
            edge_tables,
            stride,
        })
    }

    /// One-line summary (`stridectl db list` / `show`).
    pub fn summary(&self) -> String {
        format!(
            "{} @ {:016x}: {} run(s), {} edge count(s) over {} func(s), {} stride site(s)",
            self.workload,
            self.module_hash,
            self.runs,
            self.edge_total(),
            self.edge_tables.len(),
            self.stride.len()
        )
    }

    /// Multi-line human-readable rendering: the summary plus the top
    /// stride sites by total frequency.
    pub fn show(&self) -> String {
        let mut out = self.summary();
        out.push('\n');
        let mut sites: Vec<_> = self.stride.iter().collect();
        sites.sort_by_key(|&(f, s, p)| (std::cmp::Reverse(p.total_freq), f, s));
        for (func, site, p) in sites.into_iter().take(10) {
            let top = p
                .top1()
                .map(|(s, c)| format!("top stride {s} x{c}"))
                .unwrap_or_else(|| "no stride".to_string());
            let _ = writeln!(
                out,
                "  {func} {site}: total {} zero {} zdiff {} — {top}",
                p.total_freq, p.num_zero_stride, p.num_zero_diff
            );
        }
        out
    }

    /// Deterministic human-readable diff of two entries (same or different
    /// keys): header fields, edge totals, and per-site stride deltas.
    pub fn diff(&self, other: &ProfileEntry) -> String {
        let mut out = String::new();
        if self.workload != other.workload {
            let _ = writeln!(out, "workload: {} vs {}", self.workload, other.workload);
        }
        if self.module_hash != other.module_hash {
            let _ = writeln!(
                out,
                "module:   {:016x} vs {:016x}",
                self.module_hash, other.module_hash
            );
        }
        if self.runs != other.runs {
            let _ = writeln!(out, "runs:     {} vs {}", self.runs, other.runs);
        }
        let (ta, tb) = (self.edge_total(), other.edge_total());
        if ta != tb {
            let _ = writeln!(out, "edge total: {ta} vs {tb}");
        }
        let mut keys: Vec<_> = self
            .stride
            .iter()
            .map(|(f, s, _)| (f, s))
            .chain(other.stride.iter().map(|(f, s, _)| (f, s)))
            .collect();
        keys.sort();
        keys.dedup();
        for (f, s) in keys {
            match (self.stride.get(f, s), other.stride.get(f, s)) {
                (Some(a), Some(b)) if a != b => {
                    let _ = writeln!(
                        out,
                        "site {f} {s}: total {} vs {}, top1 {:?} vs {:?}",
                        a.total_freq,
                        b.total_freq,
                        a.top1(),
                        b.top1()
                    );
                }
                (Some(_), None) => {
                    let _ = writeln!(out, "site {f} {s}: only in left");
                }
                (None, Some(_)) => {
                    let _ = writeln!(out, "site {f} {s}: only in right");
                }
                _ => {}
            }
        }
        if out.is_empty() {
            out.push_str("identical\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::{FuncId, InstrId};
    use stride_profiling::LoadStrideProfile;

    fn site(total: u64, top: Vec<(i64, u64)>) -> LoadStrideProfile {
        LoadStrideProfile {
            top,
            total_freq: total,
            num_zero_stride: 1,
            num_zero_diff: total / 2,
            total_diffs: total.saturating_sub(1),
        }
    }

    fn entry(runs: u64) -> ProfileEntry {
        let mut stride = StrideProfile::new();
        stride.insert(FuncId::new(0), InstrId::new(3), site(100, vec![(64, 90)]));
        ProfileEntry {
            workload: "mcf".into(),
            module_hash: 0xabcd,
            runs,
            edge_tables: vec![vec![0, 5, 7], vec![9]],
            stride,
        }
    }

    #[test]
    fn text_round_trip() {
        let e = entry(3);
        let text = e.to_text();
        let back = ProfileEntry::from_text(&text).expect("parses");
        assert_eq!(back, e);
    }

    #[test]
    fn merge_sums_and_counts_runs() {
        let mut a = entry(1);
        let b = entry(2);
        a.merge(&b).expect("merge");
        assert_eq!(a.runs, 3);
        assert_eq!(a.edge_tables[0][1], 10);
        assert_eq!(
            a.stride
                .get(FuncId::new(0), InstrId::new(3))
                .unwrap()
                .total_freq,
            200
        );
    }

    #[test]
    fn merge_rejects_other_module() {
        let mut a = entry(1);
        let mut b = entry(1);
        b.module_hash = 0xdead;
        let err = a.merge(&b).unwrap_err();
        assert!(matches!(err, DbError::Stale { .. }), "{err}");
    }

    #[test]
    fn merge_rejects_other_workload() {
        let mut a = entry(1);
        let mut b = entry(1);
        b.workload = "gap".into();
        assert!(matches!(a.merge(&b), Err(DbError::KeyMismatch(_))));
    }

    #[test]
    fn staleness_check() {
        let e = entry(1);
        assert!(e.check_fresh(0xabcd).is_ok());
        let err = e.check_fresh(0x1234).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
    }

    #[test]
    fn diff_reports_deltas_and_identity() {
        let a = entry(1);
        let mut b = entry(1);
        assert_eq!(a.diff(&b), "identical\n");
        b.stride
            .insert(FuncId::new(1), InstrId::new(0), site(5, vec![]));
        let d = a.diff(&b);
        assert!(d.contains("only in right"), "{d}");
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(ProfileEntry::from_text("").is_err());
        assert!(ProfileEntry::from_text("# profdb v2\n").is_err());
        let missing = "# profdb v1\nworkload mcf\nruns 1\n";
        let err = ProfileEntry::from_text(missing).unwrap_err();
        assert!(err.to_string().contains("module"), "{err}");
    }

    #[test]
    fn stride_section_errors_report_entry_lines() {
        let text = "# profdb v1\nworkload mcf\nmodule 00ff\nruns 1\n\
                    # stride profile v1\nbogus\n";
        let err = ProfileEntry::from_text(text).unwrap_err();
        let DbError::Parse(p) = err else {
            panic!("expected parse error")
        };
        assert_eq!(p.line, 6);
    }
}
