//! Property-based coverage of live gallery mutation: epoch transactions
//! racing chaotic queries, rebalances racing breaker flaps, and staged
//! batches checked row for row against a sequential model.
//!
//! This suite persists failing case seeds to
//! `tests/mutation_properties.regressions` (see [`duo_check`]); past
//! failures replay before fresh generation.

use duo::prelude::*;
use duo_check::{check, prop_assert, prop_assert_eq, Config, Failed};
use std::sync::Arc;

fn config() -> Config {
    Config::default().with_cases(24).with_regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/mutation_properties.regressions"
    ))
}

/// A 3-shard system whose nodes flap open→half-open→closed on a seeded
/// schedule, with breakers armed — the PR 3 chaos stack — plus enough
/// gallery to make rebalances move real rows.
fn chaotic_system(seed: u64, threaded: bool) -> (RetrievalSystem, SyntheticDataset) {
    let mut rng = Rng64::new(seed);
    let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), seed, 2, 1);
    let gallery: Vec<VideoId> = ds.train().iter().filter(|id| id.class < 9).copied().collect();
    let victim = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
    let mut system = RetrievalSystem::build(
        victim,
        &ds,
        &gallery,
        RetrievalConfig { m: 5, nodes: 3, threaded, ..Default::default() },
    )
    .unwrap();
    for (i, node) in system.nodes().iter().enumerate() {
        node.set_fault_plan(Some(
            FaultPlan::transient(seed ^ (0xEB0C + i as u64), 0.25)
                .with_latency(300, 250, 0.1, 8_000)
                .with_flap(2 + 2 * i as u64, 6 + 2 * i as u64),
        ));
    }
    system.set_resilience(ResilienceConfig::hardened(seed ^ 0xEB0C0FF));
    (system, ds)
}

/// Every id in every shard, sorted — the row-conservation ledger.
fn all_rows(system: &RetrievalSystem) -> Vec<VideoId> {
    let mut ids: Vec<VideoId> =
        system.nodes().iter().flat_map(|n| n.snapshot().ids().to_vec()).collect();
    ids.sort_by_key(|id| (id.class, id.instance));
    ids
}

/// Every shard's rows as `(id, feature bits)`, row order.
type Layout = Vec<Vec<(VideoId, Vec<u32>)>>;

fn layout(shards: &[Arc<ShardIndex>]) -> Layout {
    shards
        .iter()
        .map(|s| s.rows().map(|(id, f)| (id, f.iter().map(|x| x.to_bits()).collect())).collect())
        .collect()
}

/// The staging contract spelled out row by row: a batch applies to
/// plain vectors one mutation at a time — first live match in (shard,
/// row) order, `Vec::remove` on delete, `push` to the smallest shard
/// (lowest index on ties) on a new insert. Returns the touched shards.
fn apply_sequentially(model: &mut Layout, batch: &MutationBatch) -> Vec<bool> {
    let mut touched = vec![false; model.len()];
    let find = |model: &Layout, id: VideoId| {
        model
            .iter()
            .enumerate()
            .find_map(|(s, rows)| rows.iter().position(|(x, _)| *x == id).map(|r| (s, r)))
    };
    for mutation in batch.mutations() {
        match mutation {
            Mutation::Insert { id, feature } => {
                let bits: Vec<u32> = feature.as_slice().iter().map(|x| x.to_bits()).collect();
                let (shard, row) = match find(model, *id) {
                    Some(at) => at,
                    None => {
                        let shard = (0..model.len()).min_by_key(|&s| (model[s].len(), s)).unwrap();
                        model[shard].push((*id, Vec::new()));
                        (shard, model[shard].len() - 1)
                    }
                };
                model[shard][row] = (*id, bits);
                touched[shard] = true;
            }
            Mutation::Delete { id } => {
                if let Some((shard, row)) = find(model, *id) {
                    model[shard].remove(row);
                    touched[shard] = true;
                }
            }
        }
    }
    touched
}

/// The rebalance contract on plain vectors: donors pop surplus rows off
/// their tails in node order, recipients take them first-in first-out.
fn rebalance_sequentially(model: &mut Layout) -> Vec<bool> {
    let n = model.len();
    let total: usize = model.iter().map(Vec::len).sum();
    let target = |i: usize| total / n + usize::from(i < total % n);
    let mut touched = vec![false; n];
    let mut surplus = Vec::new();
    for (i, rows) in model.iter_mut().enumerate() {
        while rows.len() > target(i) {
            surplus.push(rows.pop().unwrap());
            touched[i] = true;
        }
    }
    let mut surplus = surplus.into_iter();
    for (i, rows) in model.iter_mut().enumerate() {
        while rows.len() < target(i) {
            rows.push(surplus.next().unwrap());
            touched[i] = true;
        }
    }
    touched
}

/// Checks one transaction against the model: the published layout, a
/// new generation for exactly the touched shards (the others keep their
/// very `Arc`), and the receipt's rebuild count and epoch. Returns the
/// new cut.
fn check_publish(
    system: &RetrievalSystem,
    (epoch, before): &(u64, Vec<Arc<ShardIndex>>),
    model: &Layout,
    touched: &[bool],
    receipt: &EpochTransition,
) -> Result<(u64, Vec<Arc<ShardIndex>>), Failed> {
    let now = system.snapshot_with_epoch();
    let rebuilt = touched.iter().filter(|&&t| t).count() as u64;
    prop_assert_eq!(&layout(&now.1), model);
    prop_assert!(
        before.iter().zip(&now.1).zip(touched).all(|((b, a), &t)| Arc::ptr_eq(b, a) != t),
        "generations must change exactly on the touched shards {touched:?}"
    );
    prop_assert_eq!(receipt.rebuilt_shards, rebuilt);
    prop_assert_eq!(now.0, epoch + u64::from(rebuilt > 0));
    prop_assert_eq!(system.gallery_len(), model.iter().map(Vec::len).sum::<usize>());
    Ok(now)
}

check! {
    #![config(config())]

    /// A node flapping open→half-open→closed while a rebalance is in
    /// flight neither loses rows nor lets a query observe an unpublished
    /// epoch: the id multiset is conserved move-for-move, every ranked
    /// list is drawn from ids that were published when the query was
    /// admitted, and each query's served epoch sits inside the
    /// [admission, completion] epoch window.
    fn flap_during_rebalance_conserves_rows_and_epochs(
        seed in 0u64..100_000,
        unbalance in 1usize..5,
        queries in 4usize..12,
    ) {
        let (system, ds) = chaotic_system(seed, false);
        let before = all_rows(&system);

        // Unbalance shard 0 so the rebalance has rows to move, then
        // prepare query features up front (embedding is fault-free).
        let victims: Vec<VideoId> =
            system.nodes()[0].snapshot().ids().iter().copied().take(unbalance).collect();
        let mut batch = MutationBatch::new();
        for &id in &victims {
            batch.push(Mutation::Delete { id });
        }
        let t = system.apply(&batch).unwrap();
        prop_assert_eq!(t.deleted as usize, victims.len());
        let surviving = all_rows(&system);
        let probes: Vec<Tensor> = ds
            .test()
            .iter()
            .filter(|id| id.class < 9)
            .take(queries)
            .map(|&id| system.embed(&ds.video(id)).unwrap())
            .collect();

        // Race the rebalance against chaotic queries. The fault plans
        // count per-node queries, so the flap windows open and close
        // *while* the writer is staging and publishing.
        let outcomes = std::thread::scope(|scope| {
            let writer = scope.spawn(|| system.rebalance().unwrap());
            let mut outcomes = Vec::new();
            for feature in &probes {
                let admitted = system.current_epoch();
                let got = system.retrieve_resilient(feature).unwrap();
                let completed = system.current_epoch();
                outcomes.push((admitted, got, completed));
            }
            (writer.join().unwrap(), outcomes)
        });
        let (transition, outcomes) = outcomes;
        prop_assert!(transition.rows_moved > 0, "unbalanced gallery must move rows");

        // Row conservation: nothing lost, nothing double-counted, exactly
        // the pre-rebalance survivors.
        prop_assert_eq!(all_rows(&system), surviving.clone());
        prop_assert_eq!(surviving.len(), before.len() - victims.len());

        // Epoch hygiene: a query never reports an epoch that was not yet
        // published when it completed, never one older than its admission
        // cut, and never returns an id outside the published gallery.
        for (admitted, got, completed) in &outcomes {
            prop_assert!(got.epoch >= *admitted, "epoch ran backwards");
            prop_assert!(got.epoch <= *completed, "unpublished epoch observed");
            for id in &got.ids {
                prop_assert!(surviving.contains(id), "query leaked an unpublished row");
                prop_assert!(!victims.contains(id), "deleted row resurfaced");
            }
        }

        // The flap schedule must have actually fired for the race to
        // mean anything (transients/timeouts/breaker activity count too).
        let touched: u64 = outcomes
            .iter()
            .map(|(_, got, _)| {
                got.telemetry.transient_faults
                    + got.telemetry.node_timeouts
                    + got.telemetry.breaker_skips
                    + got.telemetry.node_failures.iter().sum::<u64>()
            })
            .sum();
        prop_assert!(touched > 0, "chaos schedule never fired; weaken the seed filter");
    }

    /// Mutation + rebalance + chaotic queries replay bit-identically when
    /// run serially with the same seed: the epoch trail, every receipt,
    /// and every ranked list are pure functions of the seed.
    fn serial_mutate_query_trace_replays_bit_identically(
        seed in 0u64..100_000,
        inserts in 1usize..4,
    ) {
        let run = |threaded: bool| {
            let (system, ds) = chaotic_system(seed, threaded);
            let dim = system.nodes()[0].snapshot().dim();
            let mut receipts = Vec::new();
            let mut lists = Vec::new();
            let probes: Vec<Tensor> = ds
                .test()
                .iter()
                .filter(|id| id.class < 9)
                .take(4)
                .map(|&id| system.embed(&ds.video(id)).unwrap())
                .collect();
            for k in 0..inserts {
                let id = VideoId { class: 200 + k as u32, instance: 0 };
                let feat = Tensor::from_vec(vec![k as f32 * 0.25; dim], &[dim]).unwrap();
                receipts.push(system.insert(id, feat).unwrap());
                for p in &probes {
                    lists.push(system.retrieve_resilient(p).unwrap());
                }
            }
            receipts.push(system.rebalance().unwrap());
            for p in &probes {
                lists.push(system.retrieve_resilient(p).unwrap());
            }
            (receipts, lists, system.current_epoch(), system.mutation_stats())
        };
        let a = run(false);
        let b = run(false);
        prop_assert_eq!(&a, &b, "same-seed serial replay diverged");
        let c = run(true);
        prop_assert_eq!(&a, &c, "threaded fan-out changed the trace");
    }

    /// Staging touches only what a batch touches, and lands exactly
    /// where sequential mutation would: after a random batch of inserts,
    /// in-place updates and deletes (including deleting and re-inserting
    /// one id, and inserting then deleting a fresh one) every shard's ids
    /// and feature bits equal a `Vec::remove`/`push` model, untouched
    /// shards keep their `Arc`, and the transition counts only touched
    /// shards. Draining shard 0 and then rebalancing obey the same rules.
    /// The gallery starts with duplicate ids, so "first live match" is
    /// exercised.
    fn staged_batches_match_sequential_mutation(
        seed in 0u64..100_000,
        nodes in 1usize..5,
        ops in 1usize..40,
    ) {
        let mut rng = Rng64::new(seed);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 5, 1, 0);
        let mut gallery: Vec<VideoId> =
            ds.train().iter().filter(|id| id.class < 10).copied().collect();
        for _ in 0..rng.below(4) {
            let dup = gallery[rng.below(gallery.len())];
            gallery.insert(rng.below(gallery.len() + 1), dup);
        }
        let victim = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let config = RetrievalConfig { m: 3, nodes, ..Default::default() };
        let system = RetrievalSystem::build(victim, &ds, &gallery, config).unwrap();
        let dim = system.nodes()[0].snapshot().dim();
        let feature = |rng: &mut Rng64| {
            Tensor::from_vec((0..dim).map(|_| rng.uniform() - 0.5).collect(), &[dim]).unwrap()
        };

        let start = system.snapshot_with_epoch();
        let mut model = layout(&start.1);
        let mut fresh = 0u32;
        let mut batch = MutationBatch::new();
        for _ in 0..ops {
            let existing = gallery[rng.below(gallery.len())];
            let mut new_id = || {
                fresh += 1;
                VideoId { class: 500, instance: fresh }
            };
            batch = match rng.below(6) {
                0 => batch.insert(new_id(), feature(&mut rng)),
                1 => batch.insert(existing, feature(&mut rng)),
                2 => batch.delete(existing),
                3 => batch.delete(new_id()),
                4 => batch.delete(existing).insert(existing, feature(&mut rng)),
                _ => {
                    let id = new_id();
                    batch.insert(id, feature(&mut rng)).delete(id)
                }
            };
        }
        let touched = apply_sequentially(&mut model, &batch);
        let receipt = system.apply(&batch).unwrap();
        let after = check_publish(&system, &start, &model, &touched, &receipt)?;

        // Empty shard 0, so the rebalance has donors giving several rows
        // each and their order shows.
        let drain = model[0].iter().fold(MutationBatch::new(), |b, &(id, _)| b.delete(id));
        let touched = apply_sequentially(&mut model, &drain);
        let receipt = system.apply(&drain).unwrap();
        let drained = check_publish(&system, &after, &model, &touched, &receipt)?;

        let touched = rebalance_sequentially(&mut model);
        let receipt = system.rebalance().unwrap();
        check_publish(&system, &drained, &model, &touched, &receipt)?;
    }
}
