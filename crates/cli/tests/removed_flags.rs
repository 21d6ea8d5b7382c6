//! Flags of retired features fail loudly: `--shards` / `--shard-balance`
//! belong to `shard-split` alone, and every other command rejects them
//! with `unexpected flag --shards` and a non-zero exit instead of
//! silently serving an unpartitioned database.

use std::process::Command;

use cpnn_core::persist::save_to_path;
use cpnn_core::{ObjectId, UncertainDb, UncertainObject};

const CPNN: &str = env!("CARGO_BIN_EXE_cpnn");

#[test]
fn shards_flag_is_rejected_outside_shard_split() {
    let dir = std::env::temp_dir().join(format!("cpnn-removed-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.cpnn");
    let objects = (0..4)
        .map(|i| UncertainObject::uniform(ObjectId(i), i as f64, i as f64 + 1.0).unwrap())
        .collect();
    save_to_path(&UncertainDb::build(objects).unwrap(), &data).unwrap();
    let file = data.to_str().unwrap();

    for args in [
        vec!["serve", file, "--shards", "2"],
        vec!["cpnn", file, "--shards", "2", "--q", "0", "--p", "0.3"],
        vec![
            "knn2d", "--qx", "500", "--qy", "500", "--p", "0.2", "--count", "50", "--shards", "2",
        ],
    ] {
        let out = Command::new(CPNN).args(&args).output().expect("run cpnn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains("unexpected flag --shards"),
            "{args:?}: stderr was {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
