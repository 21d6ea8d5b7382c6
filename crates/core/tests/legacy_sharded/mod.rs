//! The kind-1 (sharded) checkpoint layout that `cpnn serve --data-dir`
//! wrote while `serve` hosted an in-process sharded database. No current
//! writer emits it; the readers still accept it, and these helpers build
//! such images for the tests that prove they do.

use cpnn_core::persist::{self, PersistentModel, SnapshotWriter};
use cpnn_core::{ShardBalance, ShardableModel, ShardedDb, UncertainDb, UncertainObject};

/// A kind-1 checkpoint image of `objects` partitioned into `shards`
/// slabs, at `snapshot_version` — byte for byte the layout documented in
/// `cpnn_core::persist`: axis, slab bounds, one object list per slab.
pub fn sharded_image(
    objects: Vec<UncertainObject>,
    shards: usize,
    balance: ShardBalance,
    snapshot_version: u64,
) -> Vec<u8> {
    let db =
        ShardedDb::<UncertainDb>::build_with(objects, Default::default(), shards, balance).unwrap();
    let mut w = SnapshotWriter::new(Vec::new());
    w.put(b"CPNN").unwrap();
    w.put_u32(persist::VERSION).unwrap();
    w.put_u32(1).unwrap();
    w.put_u8(persist::KIND_SHARDED).unwrap();
    w.put_u64(snapshot_version).unwrap();
    w.put_u32(db.partition_axis() as u32).unwrap();
    w.put_u32(db.slab_bounds().len() as u32).unwrap();
    for &b in db.slab_bounds() {
        w.put_f64(b).unwrap();
    }
    w.put_u32(db.num_shards() as u32).unwrap();
    for i in 0..db.num_shards() {
        let objects = db.shard_model(i).shard_objects();
        w.put_u64(objects.len() as u64).unwrap();
        for o in &objects {
            UncertainDb::write_object(o, &mut w).unwrap();
        }
    }
    w.finish().unwrap()
}
