//! The evaluation profiler: per-pass I/O accounting and work counters.
//!
//! The paper's measurements are all *pass-level*: how many alternating
//! passes a grammar needs, how much APT traffic each pass moves through
//! the two intermediate files, and how much semantic work runs per pass.
//! [`EvalMetrics`] is that table, produced live by the machine when
//! [`EvalOptions::profile`](crate::machine::EvalOptions::profile) is on.
//!
//! The file traffic of a row is the pass's own [`PassStats`]: the
//! [`AptReader`](crate::aptfile::AptReader) and
//! [`AptWriter`](crate::aptfile::AptWriter) already count the records and
//! bytes they move, and the machine reads those tallies when the pass
//! ends. The semantic work is two plain counters the machine bumps as it
//! goes ([`PassProbe`]); no profile counter on the per-record path is
//! shared or atomic.

use crate::aptfile::ReadDir;
use crate::machine::PassStats;

/// The semantic-work counters the machine keeps through one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassProbe {
    /// Attribute instances defined (rule targets assigned) this pass.
    pub attrs_evaluated: u64,
    /// External semantic-function invocations this pass.
    pub funcs_invoked: u64,
}

impl PassProbe {
    /// Freeze the probe, with the file traffic and rule count the pass
    /// measured, into the per-pass report row.
    pub fn finish(&self, pass: u16, direction: ReadDir, stats: &PassStats) -> PassIo {
        PassIo {
            pass,
            direction,
            input_boundary: pass - 1,
            output_boundary: pass,
            records_read: stats.records_read,
            bytes_read: stats.bytes_read,
            records_written: stats.records_written,
            bytes_written: stats.bytes_written,
            attrs_evaluated: self.attrs_evaluated,
            funcs_invoked: self.funcs_invoked,
            rules_evaluated: stats.rules_evaluated,
        }
    }
}

/// One row of the pass-level profile: everything pass `k` did to the two
/// intermediate files plus the semantic work it performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassIo {
    /// Pass number (1-based, as in the paper).
    pub pass: u16,
    /// Direction the input file was traversed.
    pub direction: ReadDir,
    /// Boundary index of the input intermediate file (`pass - 1`).
    pub input_boundary: u16,
    /// Boundary index of the output intermediate file (`pass`).
    pub output_boundary: u16,
    /// Records read from the input file.
    pub records_read: u64,
    /// Framed bytes read from the input file.
    pub bytes_read: u64,
    /// Records written to the output file.
    pub records_written: u64,
    /// Framed bytes written to the output file.
    pub bytes_written: u64,
    /// Attribute instances defined during the pass.
    pub attrs_evaluated: u64,
    /// External semantic-function calls during the pass.
    pub funcs_invoked: u64,
    /// Semantic functions (rules) evaluated during the pass.
    pub rules_evaluated: u64,
}

impl PassIo {
    fn add(&mut self, other: &PassIo) {
        self.records_read += other.records_read;
        self.bytes_read += other.bytes_read;
        self.records_written += other.records_written;
        self.bytes_written += other.bytes_written;
        self.attrs_evaluated += other.attrs_evaluated;
        self.funcs_invoked += other.funcs_invoked;
        self.rules_evaluated += other.rules_evaluated;
    }
}

/// The full pass-level profile of one evaluation (or, aggregated, of a
/// whole batch: pass *k* of every job lands in row *k*).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalMetrics {
    /// Records written to the parser-built boundary-0 file.
    pub initial_records: u64,
    /// Framed bytes written to the parser-built boundary-0 file.
    pub initial_bytes: u64,
    /// Mutex acquisitions on the APT store during evaluation — the
    /// contention-visibility counter. Zero on the shared-nothing owned
    /// path ([`Backing::Memory`](crate::machine::Backing::Memory)) and on
    /// disk; non-zero only under the legacy
    /// [`Backing::SharedMemory`](crate::machine::Backing::SharedMemory)
    /// ablation, where every record read/write pays the lock. Tests pin
    /// the batch hot path at zero through this field.
    pub lock_acquisitions: u64,
    /// One row per alternating pass.
    pub passes: Vec<PassIo>,
}

impl EvalMetrics {
    /// Total framed bytes moved through intermediate files, including the
    /// initial emission.
    pub fn total_io_bytes(&self) -> u64 {
        self.initial_bytes
            + self
                .passes
                .iter()
                .map(|p| p.bytes_read + p.bytes_written)
                .sum::<u64>()
    }

    /// Total attribute instances defined across all passes.
    pub fn total_attrs_evaluated(&self) -> u64 {
        self.passes.iter().map(|p| p.attrs_evaluated).sum()
    }

    /// Total external semantic-function invocations across all passes.
    pub fn total_funcs_invoked(&self) -> u64 {
        self.passes.iter().map(|p| p.funcs_invoked).sum()
    }

    /// Fold another profile into this one, row by row (the batch
    /// evaluator's aggregation). Directions and boundary indices must
    /// agree where rows overlap, which they do for jobs evaluated under
    /// one analysis; the first profile wins those fields.
    pub fn merge(&mut self, other: &EvalMetrics) {
        self.initial_records += other.initial_records;
        self.initial_bytes += other.initial_bytes;
        self.lock_acquisitions += other.lock_acquisitions;
        for row in &other.passes {
            match self.passes.iter_mut().find(|r| r.pass == row.pass) {
                Some(mine) => mine.add(row),
                None => self.passes.push(row.clone()),
            }
        }
        self.passes.sort_by_key(|r| r.pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pass: u16, n: u64) -> PassIo {
        PassIo {
            pass,
            direction: ReadDir::Backward,
            input_boundary: pass - 1,
            output_boundary: pass,
            records_read: n,
            bytes_read: 10 * n,
            records_written: n,
            bytes_written: 10 * n,
            attrs_evaluated: 2 * n,
            funcs_invoked: n / 2,
            rules_evaluated: n,
        }
    }

    #[test]
    fn probe_freezes_into_pass_row() {
        let p = PassProbe {
            attrs_evaluated: 3,
            funcs_invoked: 1,
        };
        let stats = PassStats {
            records_read: 1,
            bytes_read: 12,
            records_written: 2,
            bytes_written: 40,
            rules_evaluated: 5,
            ..PassStats::default()
        };
        let row = p.finish(2, ReadDir::Forward, &stats);
        assert_eq!(row.pass, 2);
        assert_eq!(row.direction, ReadDir::Forward);
        assert_eq!(row.input_boundary, 1);
        assert_eq!(row.output_boundary, 2);
        assert_eq!((row.records_read, row.bytes_read), (1, 12));
        assert_eq!((row.records_written, row.bytes_written), (2, 40));
        assert_eq!((row.attrs_evaluated, row.funcs_invoked), (3, 1));
        assert_eq!(row.rules_evaluated, 5);
    }

    #[test]
    fn merge_sums_matching_passes_and_keeps_extras() {
        let mut a = EvalMetrics {
            initial_records: 5,
            initial_bytes: 50,
            lock_acquisitions: 2,
            passes: vec![row(1, 10)],
        };
        let b = EvalMetrics {
            initial_records: 3,
            initial_bytes: 30,
            lock_acquisitions: 3,
            passes: vec![row(1, 4), row(2, 7)],
        };
        a.merge(&b);
        assert_eq!(a.initial_records, 8);
        assert_eq!(a.lock_acquisitions, 5);
        assert_eq!(a.passes.len(), 2);
        assert_eq!(a.passes[0].records_read, 14);
        assert_eq!(a.passes[1].records_read, 7);
        assert_eq!(a.total_io_bytes(), 80 + 2 * 140 + 2 * 70);
    }
}
