//! Output checks: the reference computed in set-up, the closure digest,
//! and the INSERT batches whose effect on every query is known.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Order-independent digest of an N-Triples document: line count plus
/// the wrapping sum and the xor of a 64-bit hash of each line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub lines: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn of(text: &str) -> Digest {
        let mut d = Digest {
            lines: 0,
            sum: 0,
            xor: 0,
        };
        for line in text.lines().map(str::trim_end).filter(|l| !l.is_empty()) {
            let h = line_hash(line.as_bytes());
            d.lines += 1;
            d.sum = d.sum.wrapping_add(h);
            d.xor ^= h;
        }
        d
    }

    fn parse(s: &str) -> Option<Digest> {
        let mut it = s.split(':');
        let lines = it.next()?.parse().ok()?;
        let sum = u64::from_str_radix(it.next()?, 16).ok()?;
        let xor = u64::from_str_radix(it.next()?, 16).ok()?;
        Some(Digest { lines, sum, xor })
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:016x}:{:016x}", self.lines, self.sum, self.xor)
    }
}

/// FNV-1a followed by the splitmix64 finalizer, so that lines differing
/// in one byte land far apart in the sum.
fn line_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Students per INSERT batch.
pub const BATCH_STUDENTS: usize = 5;

/// The INSERT batch with sequence number `seq`: new graduate students
/// taking a new course. The closure adds their `Student` and `Person`
/// types (subclass) and the course's `Course` type (range), so every
/// batch moves each query's answer by the same amount. The course is new
/// so that no selective query's answer grows during a run: answer size
/// alone changes how the server's responses travel over TCP.
pub fn insert_batch(seq: usize) -> String {
    let mut nt = String::new();
    for j in 0..BATCH_STUDENTS {
        let s = student_iri(seq, j);
        nt.push_str(&format!(
            "<{s}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
             <http://swat.lehigh.edu/onto/univ-bench.owl#GraduateStudent> .\n\
             <{s}> <http://swat.lehigh.edu/onto/univ-bench.owl#takesCourse> \
             <http://www.univ0.edu/dept0/perfbenchCourse{seq}> .\n"
        ));
    }
    nt
}

/// IRI of student `j` of batch `seq`.
pub fn student_iri(seq: usize, j: usize) -> String {
    format!("http://www.univ0.edu/dept0/perfbenchGrad{seq}_{j}")
}

/// Index of the query that lists every `Student` (LUBM Q6); the
/// read-your-writes check runs it after the load.
pub const RYW_QUERY: usize = 5;

/// What set-up computed from the generated input with `run_serial`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub base_triples: u64,
    pub closure: Digest,
    /// Row counts of LUBM Q1–Q14 on the closure.
    pub rows0: Vec<u64>,
    /// Row counts after one INSERT batch.
    pub rows1: Vec<u64>,
    /// Triples one batch adds, and the closure triples it derives.
    pub batch_added: u64,
    pub batch_derived: u64,
}

impl Reference {
    /// Rows query `q` must return once `epoch` batches are applied.
    pub fn expected_rows(&self, q: usize, epoch: u64) -> u64 {
        self.rows0[q] + epoch * (self.rows1[q] - self.rows0[q])
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let text = format!(
            "base_triples {}\nclosure {}\nrows0 {}\nrows1 {}\nbatch_added {}\nbatch_derived {}\n",
            self.base_triples,
            self.closure,
            list(&self.rows0),
            list(&self.rows1),
            self.batch_added,
            self.batch_derived
        );
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let kv: BTreeMap<&str, &str> = text.lines().filter_map(|l| l.split_once(' ')).collect();
        let get = |k: &str| {
            kv.get(k)
                .copied()
                .ok_or_else(|| format!("reference lacks {k}"))
        };
        let num = |k: &str| {
            get(k)?
                .parse::<u64>()
                .map_err(|e| format!("reference {k}: {e}"))
        };
        let list = |k: &str| -> Result<Vec<u64>, String> {
            get(k)?
                .split(',')
                .map(|x| x.parse().map_err(|e| format!("reference {k}: {e}")))
                .collect()
        };
        let r = Reference {
            base_triples: num("base_triples")?,
            closure: Digest::parse(get("closure")?).ok_or("reference closure digest")?,
            rows0: list("rows0")?,
            rows1: list("rows1")?,
            batch_added: num("batch_added")?,
            batch_derived: num("batch_derived")?,
        };
        let monotone =
            r.rows0.len() == r.rows1.len() && r.rows0.iter().zip(&r.rows1).all(|(a, b)| a <= b);
        if !monotone {
            return Err("reference row counts are not monotone under INSERT".into());
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_line_order_but_not_content() {
        let a = Digest::of("<a> <b> <c> .\n<d> <e> <f> .\n");
        let b = Digest::of("<d> <e> <f> .\n<a> <b> <c> .\n");
        let c = Digest::of("<d> <e> <f> .\n<a> <b> <x> .\n");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.lines, 2);
        assert_eq!(Digest::parse(&a.to_string()), Some(a));
    }

    #[test]
    fn reference_round_trips_and_extrapolates() {
        let dir = crate::test_dir("reference");
        let r = Reference {
            base_triples: 10,
            closure: Digest::of("<a> <b> <c> .\n"),
            rows0: vec![3, 7],
            rows1: vec![8, 7],
            batch_added: 10,
            batch_derived: 10,
        };
        let path = dir.join("reference.txt");
        r.save(&path).expect("save");
        assert_eq!(Reference::load(&path), Ok(r.clone()));
        assert_eq!(r.expected_rows(0, 4), 23);
        assert_eq!(r.expected_rows(1, 4), 7);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn batches_are_distinct() {
        assert_ne!(insert_batch(1), insert_batch(2));
        assert_eq!(insert_batch(3).lines().count(), 2 * BATCH_STUDENTS);
    }
}
