//! Correctness checks, computed apart from the program under test.
//!
//! Every workload keeps its own model of what the store must hold: each
//! load thread (or connection) is the only writer of the keys it owns,
//! so its model of those keys is exact at every instant. The functions
//! here compare what the store answered with that model and say why
//! an answer is wrong.

use std::fmt::Write as _;

pub type Verdict = Result<(), String>;

/// A point read must return exactly the model's value.
pub fn get(key: u64, expect: Option<u64>, got: Option<u64>) -> Verdict {
    if expect == got {
        Ok(())
    } else {
        Err(format!("get({key}): expected {expect:?}, got {got:?}"))
    }
}

/// A remove must report whether the model held the key.
pub fn remove(key: u64, expect: bool, got: bool) -> Verdict {
    if expect == got {
        Ok(())
    } else {
        Err(format!("remove({key}): model held it: {expect}, store said: {got}"))
    }
}

/// A scan answer is strictly ascending, starts at or after `lo` and
/// holds at most `limit` entries.
pub fn scan_order(lo: u64, limit: usize, entries: &[(u64, u64)]) -> Verdict {
    if entries.len() > limit {
        return Err(format!("scan({lo}, {limit}): {} entries", entries.len()));
    }
    if let Some(&(k, _)) = entries.first() {
        if k < lo {
            return Err(format!("scan({lo}, {limit}): first key {k} below lo"));
        }
    }
    for w in entries.windows(2) {
        if w[0].0 >= w[1].0 {
            return Err(format!(
                "scan({lo}, {limit}): key {} followed by {} (not strictly ascending)",
                w[0].0, w[1].0
            ));
        }
    }
    Ok(())
}

/// What a scan check needs to know about the keys and the model.
pub trait ScanModel {
    /// One past the largest key the workload uses.
    fn key_end(&self) -> u64;
    /// Whether the checking thread owns `key` (its model is exact).
    fn owns(&self, key: u64) -> bool;
    /// The model's value of an owned key.
    fn value(&self, key: u64) -> Option<u64>;
    /// Whether `val` is a value the workload could have written under
    /// `key` (values encode their key where the workload says so).
    fn plausible(&self, key: u64, val: u64) -> bool;
}

/// A scan answer is ordered, every value is plausible for its key, and
/// over the key range it covers it holds exactly the owned keys the
/// model holds, with the model's values.
pub fn scan(lo: u64, limit: usize, entries: &[(u64, u64)], m: &dyn ScanModel) -> Verdict {
    scan_order(lo, limit, entries)?;
    for &(k, v) in entries {
        if !m.plausible(k, v) {
            return Err(format!("scan({lo}, {limit}): value {v:#x} cannot belong to key {k}"));
        }
    }
    // The covered range ends at the last returned key, or at the end of
    // the key space when the scan came back short.
    let hi = if entries.len() == limit {
        entries.last().map_or(lo, |e| e.0)
    } else {
        m.key_end().saturating_sub(1)
    };
    let mut at = 0usize;
    let mut k = lo;
    while k <= hi {
        while at < entries.len() && entries[at].0 < k {
            at += 1;
        }
        if m.owns(k) {
            let got = entries.get(at).filter(|e| e.0 == k).map(|e| e.1);
            let expect = m.value(k);
            if got != expect {
                return Err(format!(
                    "scan({lo}, {limit}): owned key {k} expected {expect:?}, got {got:?}"
                ));
            }
        }
        if k == u64::MAX {
            break;
        }
        k += 1;
    }
    Ok(())
}

/// A consistent read of every account sums to the conserved total.
pub fn conserved(balances: &[(u64, u64)], expect: u64) -> Verdict {
    let sum = balances.iter().fold(0u64, |s, &(_, b)| s.wrapping_add(b));
    if sum == expect {
        Ok(())
    } else {
        let mut msg = format!("account sum {sum} != conserved total {expect}:");
        for (k, b) in balances.iter().take(8) {
            let _ = write!(msg, " {k}={b}");
        }
        Err(msg)
    }
}

/// The store's whole contents (a full ascending scan over `[0,
/// key_end)`) equal the model: every modelled key present with its
/// value, nothing else present.
pub fn whole_state(
    entries: &[(u64, u64)],
    key_end: u64,
    model: &dyn Fn(u64) -> Option<u64>,
) -> Verdict {
    scan_order(0, usize::MAX, entries)?;
    let mut at = 0usize;
    let mut missing = 0u64;
    let mut first: Option<String> = None;
    for k in 0..key_end {
        let got = if at < entries.len() && entries[at].0 == k {
            at += 1;
            Some(entries[at - 1].1)
        } else {
            None
        };
        let expect = model(k);
        if got != expect {
            missing += 1;
            if first.is_none() {
                first = Some(format!("key {k}: expected {expect:?}, got {got:?}"));
            }
        }
    }
    if at < entries.len() {
        return Err(format!("key {} lies outside the key space", entries[at].0));
    }
    match first {
        None => Ok(()),
        Some(f) => Err(format!("{missing} keys differ from the model; first {f}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owner of the even keys in [0, 100); values encode key << 32.
    struct Even(Vec<Option<u64>>);

    impl ScanModel for Even {
        fn key_end(&self) -> u64 {
            100
        }
        fn owns(&self, key: u64) -> bool {
            key.is_multiple_of(2)
        }
        fn value(&self, key: u64) -> Option<u64> {
            self.0[key as usize]
        }
        fn plausible(&self, key: u64, val: u64) -> bool {
            val >> 32 == key
        }
    }

    fn model() -> Even {
        Even((0..100u64).map(|k| (k % 3 != 0).then_some(k << 32 | 1)).collect())
    }

    fn truth(m: &Even, lo: u64, n: usize) -> Vec<(u64, u64)> {
        (lo..100).filter_map(|k| m.0[k as usize].map(|v| (k, v))).take(n).collect()
    }

    #[test]
    fn correct_scan_passes() {
        let m = model();
        for lo in [0, 7, 50, 95] {
            scan(lo, 10, &truth(&m, lo, 10), &m).unwrap();
        }
    }

    #[test]
    fn scan_missing_one_owned_key_fails() {
        let m = model();
        let mut got = truth(&m, 10, 10);
        let owned = got.iter().position(|e| e.0 % 2 == 0).unwrap();
        got.remove(owned);
        assert!(scan(10, 10, &got, &m).is_err());
    }

    #[test]
    fn out_of_order_scan_fails() {
        let m = model();
        let mut got = truth(&m, 10, 10);
        got.swap(3, 4);
        assert!(scan_order(10, 10, &got).is_err());
        assert!(scan(10, 10, &got, &m).is_err());
        let below = vec![(9, 9 << 32 | 1), (10, 10 << 32 | 1)];
        assert!(scan_order(10, 10, &below).is_err());
    }

    #[test]
    fn scan_value_of_another_key_fails() {
        let m = model();
        let mut got = truth(&m, 10, 10);
        got[1].1 = 77 << 32;
        assert!(scan(10, 10, &got, &m).is_err());
    }

    #[test]
    fn torn_transfer_sum_fails() {
        let before = [(1u64, 100u64), (2, 100), (3, 100)];
        conserved(&before, 300).unwrap();
        // A transfer of 40 from account 1 to account 3, seen half-applied.
        let torn = [(1u64, 60u64), (2, 100), (3, 100)];
        assert!(conserved(&torn, 300).is_err());
    }

    #[test]
    fn acked_put_lost_after_restart_fails() {
        let m = model();
        let model_fn = |k: u64| m.0[k as usize];
        let full = truth(&m, 0, usize::MAX);
        whole_state(&full, 100, &model_fn).unwrap();
        // The last acknowledged put to key 20 did not survive: the
        // store still holds the value from before it.
        let mut lost = full.clone();
        let at = lost.iter().position(|e| e.0 == 20).unwrap();
        lost[at].1 = 20 << 32;
        assert!(whole_state(&lost, 100, &model_fn).is_err());
        // Or the key is gone altogether.
        lost.remove(at);
        assert!(whole_state(&lost, 100, &model_fn).is_err());
    }

    #[test]
    fn wrong_get_fails() {
        get(4, Some(1), Some(1)).unwrap();
        assert!(get(4, Some(1), None).is_err());
        assert!(get(4, None, Some(1)).is_err());
    }

    #[test]
    fn wrong_remove_fails() {
        remove(4, true, true).unwrap();
        assert!(remove(4, true, false).is_err());
        assert!(remove(4, false, true).is_err());
    }
}
