//! The rungs of the ladder behind one interface: `JiffyMap`,
//! `ShardedJiffy` (two-phase), `ElasticJiffy` and `DurableMap` over an
//! `ElasticJiffy`. Every rung over `u64` keys and values, range-routed
//! where it is sharded.

use std::path::Path;
use std::sync::Arc;

use index_api::{Batch, BatchOp, OrderedIndex};
use jiffy::{JiffyConfig, JiffyMap};
use jiffy_dur::{DurOptions, DurableMap, RecoveryReport};
use jiffy_shard::{ElasticJiffy, Router, ShardedJiffy};

pub type Elastic = ElasticJiffy<u64, u64>;
pub type Durable = DurableMap<Arc<Elastic>>;

/// Range shards of every sharded rung (the server's store has four).
pub const SHARDS: usize = 4;

/// Entries per batch when a store is loaded, and when it is settled.
const LOAD_CHUNK: usize = 1024;
const SETTLE_CHUNK: usize = 16;

pub trait Store: Sync {
    /// The span-name prefix of this rung (the layer's module name).
    fn layer(&self) -> &'static str;
    fn get(&self, k: u64) -> Option<u64>;
    /// Returns whether the store acknowledged the write.
    fn put(&self, k: u64, v: u64) -> bool;
    /// Whether `k` was present, if the store acknowledged the removal.
    fn remove(&self, k: u64) -> Option<bool>;
    fn scan(&self, lo: u64, n: usize, out: &mut Vec<(u64, u64)>);
    fn batch(&self, ops: Vec<BatchOp<u64, u64>>) -> bool;
    /// Which shard holds `k`, for the two-phase sharded rung.
    fn shard_of(&self, _k: u64) -> Option<usize> {
        None
    }
    /// The elastic map under this rung, which can split and merge
    /// shards while it serves.
    fn elastic(&self) -> Option<&Elastic> {
        None
    }
}

fn scan_into<I: OrderedIndex<u64, u64> + ?Sized>(
    i: &I,
    lo: u64,
    n: usize,
    out: &mut Vec<(u64, u64)>,
) {
    out.clear();
    i.scan_from(&lo, n, &mut |k, v| out.push((*k, *v)));
}

macro_rules! index_store {
    ($t:ty, $layer:expr, { $($extra:tt)* }) => {
        impl Store for $t {
            fn layer(&self) -> &'static str {
                $layer
            }
            fn get(&self, k: u64) -> Option<u64> {
                OrderedIndex::get(self, &k)
            }
            fn put(&self, k: u64, v: u64) -> bool {
                OrderedIndex::put(self, k, v);
                true
            }
            fn remove(&self, k: u64) -> Option<bool> {
                Some(OrderedIndex::remove(self, &k))
            }
            fn scan(&self, lo: u64, n: usize, out: &mut Vec<(u64, u64)>) {
                scan_into(self, lo, n, out)
            }
            fn batch(&self, ops: Vec<BatchOp<u64, u64>>) -> bool {
                self.batch_update(Batch::new(ops));
                true
            }
            $($extra)*
        }
    };
}

index_store!(JiffyMap<u64, u64>, "jiffy", {});
index_store!(ShardedJiffy<u64, u64>, "jiffy-shard", {
    fn shard_of(&self, k: u64) -> Option<usize> {
        Some(self.shard_for(&k))
    }
});
index_store!(Elastic, "jiffy-shard.elastic", {
    fn elastic(&self) -> Option<&Elastic> {
        Some(self)
    }
});

impl Store for Durable {
    fn layer(&self) -> &'static str {
        "jiffy-dur"
    }
    fn get(&self, k: u64) -> Option<u64> {
        DurableMap::get(self, &k)
    }
    fn put(&self, k: u64, v: u64) -> bool {
        DurableMap::put(self, k, v).is_ok()
    }
    fn remove(&self, k: u64) -> Option<bool> {
        DurableMap::remove(self, &k).ok()
    }
    fn scan(&self, lo: u64, n: usize, out: &mut Vec<(u64, u64)>) {
        scan_into(self.inner().as_ref(), lo, n, out)
    }
    fn batch(&self, ops: Vec<BatchOp<u64, u64>>) -> bool {
        self.batch_update(Batch::new(ops)).is_ok()
    }
    fn elastic(&self) -> Option<&Elastic> {
        Some(self.inner().as_ref())
    }
}

pub fn jiffy(cfg: JiffyConfig) -> JiffyMap<u64, u64> {
    JiffyMap::with_config(cfg)
}

pub fn sharded(key_end: u64, cfg: JiffyConfig) -> ShardedJiffy<u64, u64> {
    ShardedJiffy::with_router(Router::range_uniform(SHARDS, key_end), cfg)
}

pub fn elastic(key_end: u64, cfg: JiffyConfig) -> Elastic {
    ElasticJiffy::with_router(Router::range_uniform(SHARDS, key_end), cfg)
}

/// Open (or reopen, recovering what is there) a durable elastic map
/// that logs with group commit and acknowledges before the fsync
/// (`Durability::Batch`, the `DurOptions` default).
pub fn durable(key_end: u64, cfg: JiffyConfig, dir: &Path) -> (Durable, RecoveryReport) {
    DurableMap::open(Arc::new(elastic(key_end, cfg)), dir, DurOptions::default())
        .expect("open the durability root")
}

/// Load `entries` (ascending) through the store's batch path, then
/// write each entry once more, in small batches, from this one thread:
/// a large load batch leaves a node of about `LOAD_CHUNK` entries, and
/// the rewrite splits it down to the size the configuration targets
/// before any timed run starts (where two threads would split it).
pub fn load(store: &dyn Store, entries: &[(u64, u64)]) -> bool {
    let put = |c: &[(u64, u64)]| store.batch(c.iter().map(|&(k, v)| BatchOp::Put(k, v)).collect());
    entries.chunks(LOAD_CHUNK).all(put) && entries.chunks(SETTLE_CHUNK).all(put)
}

/// Every entry of the store, ascending.
pub fn contents(store: &dyn Store) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    store.scan(0, usize::MAX, &mut out);
    out
}
