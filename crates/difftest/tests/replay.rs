//! Replays every committed corpus case through the full engine matrix.
//!
//! Corpus files under `crates/difftest/corpus/` are regression fixtures:
//! each was once a shrunk failure (or a migrated proptest regression) and
//! must now pass every engine.

use difftest::corpus;
use difftest::harness::Harness;

#[test]
fn committed_corpus_replays_clean() {
    let dir = corpus::default_dir();
    let cases = corpus::load_dir(&dir).expect("corpus directory loads");
    assert!(
        !cases.is_empty(),
        "no committed corpus cases under {}",
        dir.display()
    );
    let harness = Harness::default();
    for (name, case) in &cases {
        if let Err(f) = harness.check(case) {
            panic!("corpus case {name}: {f}\n{}", case.to_text());
        }
    }
}
