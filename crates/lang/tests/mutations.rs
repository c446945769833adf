//! No input may panic the frontend. Seeded mutations of the `.sq`
//! corpus (`examples/sq`, `lib/std.sq` and the small catalog
//! listings), byte-level and aimed at resolution and lowering, go
//! through `parse_program` and `parse_files`. Each must return, every
//! diagnostic's span must lie in its source, and rendering must
//! succeed. A quick set runs by default; `--ignored` runs ten times as
//! many inputs.

#[path = "support/mutate.rs"]
mod mutate;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use square_lang::{parse_files, parse_program, render, SearchPathLoader};

/// Catalog listings longer than this are left out: each mutant
/// re-parses the whole text.
const MAX_LISTING_BYTES: usize = 20_000;

/// Runs both entry points on `source`, read as if from `path`.
fn check(path: &Path, source: &str, loader: &SearchPathLoader) {
    if let Err(diags) = parse_program(source) {
        assert!(!diags.is_empty());
        for d in &diags {
            assert!(
                d.span.start <= d.span.end && d.span.end <= source.len(),
                "{d:?} outside a {}-byte source",
                source.len()
            );
        }
        render(source, "prog.sq", &diags);
    }
    let (map, parsed) = parse_files(&path.display().to_string(), source, loader);
    if let Err(diags) = parsed {
        assert!(!diags.is_empty());
        for d in &diags {
            assert!(map.contains(d.span), "{d:?} outside the source map");
        }
        map.render(&diags);
    }
}

/// `per_source` byte-level and `per_source` lowering mutants of every
/// corpus file, from `seed`; returns how many inputs were checked.
fn run(seed: u64, per_source: usize) -> usize {
    let loader = SearchPathLoader::new(vec![mutate::repo_root().join("lib")]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checked = 0;
    for (path, source) in mutate::corpus(MAX_LISTING_BYTES) {
        for i in 0..2 * per_source {
            let mutant = if i < per_source {
                mutate::byte_mutation(&source, &mut rng)
            } else {
                mutate::lowering_mutation(&source, &mut rng)
            };
            if catch_unwind(AssertUnwindSafe(|| check(&path, &mutant, &loader))).is_err() {
                panic!(
                    "mutant {i} of {} (seed {seed}) failed:\n{mutant}",
                    path.display()
                );
            }
            checked += 1;
        }
    }
    checked
}

#[test]
fn mutated_sources_never_panic_the_frontend() {
    assert!(run(0x9a11_c0de, 10) >= 400);
}

#[test]
#[ignore = "ten times the default set; CI's frontend job runs it"]
fn many_mutated_sources_never_panic_the_frontend() {
    assert!(run(0xdeca_fbad, 100) >= 4_000);
}
