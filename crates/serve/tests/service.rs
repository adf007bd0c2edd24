//! End-to-end tests of the serving layer: concurrency, bit-identical
//! batching, admission control, and node fault tolerance.

use duo_models::{Architecture, Backbone, BackboneConfig};
use duo_retrieval::{QueryOracle, RetrievalConfig, RetrievalError, RetrievalSystem};
use duo_serve::{RateLimit, RetrievalService, ServeConfig, ServeError, ServiceOracle};
use duo_tensor::Rng64;
use duo_video::{ClipSpec, DatasetKind, SyntheticDataset, Video, VideoId};
use std::sync::Barrier;
use std::time::Duration;

fn make_system(seed: u64, threaded: bool) -> (RetrievalSystem, SyntheticDataset) {
    let mut rng = Rng64::new(seed);
    let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), seed, 2, 1);
    let gallery: Vec<VideoId> = ds.train().iter().filter(|id| id.class < 10).copied().collect();
    let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
    let config = RetrievalConfig { m: 5, nodes: 3, threaded, ..Default::default() };
    (RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap(), ds)
}

fn queries(ds: &SyntheticDataset, n: usize) -> Vec<Video> {
    ds.test().iter().take(n).map(|&id| ds.video(id)).collect()
}

/// Reference answers computed directly against the system, through the
/// same 8-bit quantization the service applies at admission.
fn direct_answers(system: &RetrievalSystem, videos: &[Video]) -> Vec<Vec<VideoId>> {
    videos
        .iter()
        .map(|v| {
            let mut q = v.clone();
            q.quantize();
            system.retrieve(&q).unwrap()
        })
        .collect()
}

#[test]
fn four_concurrent_clients_share_one_system() {
    let (system, ds) = make_system(501, false);
    let videos = queries(&ds, 6);
    let expected = direct_answers(&system, &videos);

    let config = ServeConfig { workers: 4, batch_max: 8, ..ServeConfig::default() };
    let service = RetrievalService::start(system, config).unwrap();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let client = service.client(None, None);
                let videos = &videos;
                let expected = &expected;
                scope.spawn(move || {
                    for (video, want) in videos.iter().zip(expected) {
                        let got = client.retrieve(video).unwrap();
                        assert_eq!(&got, want, "served list diverged from direct retrieval");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let stats = service.shutdown();
    assert_eq!(stats.served, 4 * videos.len() as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queue_depth, 0, "all requests drained");
    assert!(stats.batches >= 1);
    assert!(stats.latency_p95_us >= stats.latency_p50_us);
}

#[test]
fn batched_and_unbatched_serving_are_bit_identical() {
    // A burst coalesces only while its clients are in admission together,
    // which thread scheduling decides, so bursts of five clients released
    // at one barrier repeat until one forms a batch of two or more.
    const MAX_BURSTS: usize = 50;
    let (system, ds) = make_system(502, false);
    let videos = queries(&ds, 5);
    let config = ServeConfig {
        workers: 2,
        batch_max: 8,
        batch_wait: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let service = RetrievalService::start(system, config).unwrap();
    let clients: Vec<_> = videos.iter().map(|_| service.client(None, None)).collect();
    let release = Barrier::new(videos.len());
    let mut bursts = Vec::new();
    while bursts.len() < MAX_BURSTS && service.stats().max_batch < 2 {
        bursts.push(std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .zip(&videos)
                .map(|(client, video)| {
                    let release = &release;
                    scope.spawn(move || {
                        release.wait();
                        client.retrieve(video).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        }));
    }
    let stats = service.shutdown();
    assert!(
        stats.max_batch >= 2,
        "no coalesced batch in {} bursts, histogram {:?}",
        bursts.len(),
        stats.batch_hist
    );

    // Same seed, batching disabled: every request is its own batch.
    let (system, _ds) = make_system(502, false);
    let config = ServeConfig { workers: 1, batch_max: 1, ..ServeConfig::default() };
    let service = RetrievalService::start(system, config).unwrap();
    let client = service.client(None, None);
    let lone: Vec<_> = videos.iter().map(|v| client.retrieve(v).unwrap()).collect();
    for batched in &bursts {
        assert_eq!(batched, &lone, "micro-batching changed a retrieval list");
    }
    let stats = service.shutdown();
    assert_eq!(stats.max_batch, 1);
}

#[test]
fn lone_caller_never_waits_for_batch_wait() {
    let (system, ds) = make_system(515, false);
    let videos = queries(&ds, 5);
    let expected = direct_answers(&system, &videos);
    // An hour-long window: a batcher that held a lone request open for
    // company would stall every call, so the caller runs on its own
    // thread and a stall fails the test after a minute instead of
    // hanging it.
    let config = ServeConfig {
        workers: 2,
        batch_max: 8,
        batch_wait: Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    let service = RetrievalService::start(system, config).unwrap();
    let client = service.client(None, None);
    let (done_tx, done) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        let lists: Result<Vec<_>, _> = videos.iter().map(|v| client.retrieve(v)).collect();
        let _ = done_tx.send(lists);
    });
    let lists = done.recv_timeout(Duration::from_secs(60));
    assert!(
        !matches!(lists, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "five sequential calls still running after a minute"
    );
    caller.join().expect("caller thread finished without panicking");
    let lists = lists.expect("caller reported its lists").unwrap();
    assert_eq!(lists, expected, "served lists diverged from direct retrieval");
    let stats = service.shutdown();
    assert_eq!(stats.batch_hist[1], 5, "histogram {:?}", stats.batch_hist);
}

#[test]
fn budget_is_enforced_server_side_and_rejections_are_free() {
    let (system, ds) = make_system(503, false);
    let video = ds.video(ds.test()[0]);
    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    let client = service.client(Some(3), None);

    for _ in 0..3 {
        client.retrieve(&video).unwrap();
    }
    assert_eq!(client.queries_used(), 3);
    assert_eq!(client.budget_remaining(), Some(0));
    for _ in 0..2 {
        match client.retrieve(&video) {
            Err(ServeError::BudgetExhausted { budget: 3 }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }
    // Rejected queries are not charged and never reach the model.
    assert_eq!(client.queries_used(), 3);

    // A second client has an independent budget.
    let other = service.client(Some(1), None);
    other.retrieve(&video).unwrap();

    let stats = service.shutdown();
    assert_eq!(stats.served, 4);
    assert_eq!(stats.rejected_budget, 2);
}

#[test]
fn rate_limit_rejects_after_burst() {
    let (system, ds) = make_system(504, false);
    let video = ds.video(ds.test()[0]);
    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    // Zero refill: the burst is a one-time allowance, so the test is
    // deterministic regardless of timing.
    let client = service.client(None, Some(RateLimit::new(2, 0.0)));

    client.retrieve(&video).unwrap();
    client.retrieve(&video).unwrap();
    match client.retrieve(&video) {
        Err(ServeError::RateLimited { retry_after_ms: u64::MAX }) => {}
        other => panic!("expected rate limiting, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.rejected_rate, 1);
}

#[test]
fn node_failure_mid_stream_degrades_then_recovers() {
    let (system, ds) = make_system(505, false);
    let videos = queries(&ds, 3);
    let healthy = direct_answers(&system, &videos);

    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    let client = service.client(None, None);

    for (video, want) in videos.iter().zip(&healthy) {
        assert_eq!(&client.retrieve(video).unwrap(), want);
    }

    // Take one shard offline mid-stream: queries keep being served from
    // the surviving shards, and lost gallery entries simply drop out.
    service.system().nodes()[1].set_offline();
    let degraded: Vec<_> = videos.iter().map(|v| client.retrieve(v).unwrap()).collect();
    let offline_ids: Vec<VideoId> = service.system().nodes()[1].snapshot().ids().to_vec();
    for list in &degraded {
        assert!(!list.is_empty(), "surviving shards must still answer");
        for id in list {
            assert!(!offline_ids.contains(id), "offline shard leaked {id:?} into results");
        }
    }

    // Recovery: back online, answers return to the healthy baseline.
    service.system().nodes()[1].set_online();
    for (video, want) in videos.iter().zip(&healthy) {
        assert_eq!(&client.retrieve(video).unwrap(), want, "recovery must restore results");
    }

    let stats = service.shutdown();
    assert_eq!(stats.served, 3 * videos.len() as u64);
    assert_eq!(stats.failed, 0);
}

#[test]
fn all_nodes_offline_fails_the_query_but_not_the_service() {
    let (system, ds) = make_system(506, false);
    let video = ds.video(ds.test()[0]);
    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    let client = service.client(None, None);

    for node in service.system().nodes() {
        node.set_offline();
    }
    match client.retrieve(&video) {
        Err(ServeError::Retrieval(RetrievalError::AllNodesOffline)) => {}
        other => panic!("expected AllNodesOffline, got {other:?}"),
    }

    for node in service.system().nodes() {
        node.set_online();
    }
    client.retrieve(&video).unwrap();

    let stats = service.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.failed, 1);
}

#[test]
fn threaded_and_unthreaded_systems_serve_identical_lists() {
    let (unthreaded, ds) = make_system(507, false);
    let (threaded, _) = make_system(507, true);
    let videos = queries(&ds, 4);

    let serve_all = |system: RetrievalSystem| -> Vec<Vec<VideoId>> {
        let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
        let client = service.client(None, None);
        let lists = videos.iter().map(|v| client.retrieve(v).unwrap()).collect();
        service.shutdown();
        lists
    };
    assert_eq!(
        serve_all(unthreaded),
        serve_all(threaded),
        "node-level threading must not change served results"
    );
}

#[test]
fn service_oracle_runs_attack_style_query_loops() {
    let (system, ds) = make_system(508, false);
    let video = ds.video(ds.test()[0]);
    let m = system.config().m;
    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    let mut oracle = ServiceOracle::new(service.client(Some(2), None));

    assert_eq!(oracle.m(), m);
    let list = oracle.retrieve(&video).unwrap();
    assert_eq!(list.len(), m.min(service.system().gallery_len()));
    oracle.retrieve(&video).unwrap();
    assert_eq!(oracle.queries_used(), 2);
    assert_eq!(oracle.budget_remaining(), Some(0));
    // Through the oracle, exhaustion surfaces as the same RetrievalError
    // attacks already match on against a local BlackBox.
    match oracle.retrieve(&video) {
        Err(RetrievalError::BudgetExhausted { budget: 2 }) => {}
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn shutdown_returns_the_system_and_stops_clients() {
    let (system, ds) = make_system(509, false);
    let video = ds.video(ds.test()[0]);
    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    let client = service.client(None, None);
    let before = client.retrieve(&video).unwrap();

    let (recovered, stats) = service.shutdown_into();
    assert_eq!(stats.served, 1);
    let recovered = recovered.expect("no live upgrades at shutdown");
    // The recovered system answers exactly as it did behind the service.
    let mut q = video.clone();
    q.quantize();
    assert_eq!(recovered.retrieve(&q).unwrap(), before);

    // Outstanding handles observe the shutdown instead of hanging.
    match client.retrieve(&video) {
        Err(ServeError::Stopped) => {}
        other => panic!("expected Stopped, got {other:?}"),
    }
    assert_eq!(client.queries_used(), 0, "account is gone with the service");
}

#[test]
fn overload_sheds_excess_requests() {
    let (system, ds) = make_system(510, false);
    let videos = queries(&ds, 2);
    // A tiny queue and a slow batcher window make overflow reproducible:
    // fill the queue from this thread before the batcher can drain it.
    let config = ServeConfig {
        workers: 1,
        batch_max: 1,
        batch_wait: Duration::from_millis(1),
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let service = RetrievalService::start(system, config).unwrap();
    let client = service.client(None, None);

    let mut overloaded = 0;
    let mut served = 0;
    std::thread::scope(|scope| {
        let results: Vec<_> = (0..6)
            .map(|i| {
                let client = client.clone();
                let video = &videos[i % videos.len()];
                scope.spawn(move || client.retrieve(video))
            })
            .collect();
        for handle in results {
            match handle.join().unwrap() {
                Ok(_) => served += 1,
                Err(ServeError::Overloaded { queue_cap: 1 }) => overloaded += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    });
    assert_eq!(served + overloaded, 6);
    assert!(served >= 1, "some requests must get through");

    let stats = service.shutdown();
    assert_eq!(stats.served, served);
    assert_eq!(stats.rejected_overload, overloaded);
}

#[test]
fn expired_deadlines_shed_and_refund_the_charge() {
    let (system, ds) = make_system(512, false);
    let videos = queries(&ds, 3);
    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    let client = service.client(Some(10), None);

    // A zero deadline is already expired at admission time, so every
    // request is shed at dequeue and its charge refunded.
    for video in &videos {
        let got = client.retrieve_with_deadline(video, Duration::ZERO);
        assert!(matches!(got, Err(ServeError::DeadlineExceeded)), "expected shed, got {got:?}");
    }
    assert_eq!(client.queries_used(), 0, "shed requests must be refunded");
    assert_eq!(client.budget_remaining(), Some(10));

    // A generous deadline serves normally and is charged.
    let list = client.retrieve_with_deadline(&videos[0], Duration::from_secs(30)).unwrap();
    assert_eq!(list.len(), 5);
    assert_eq!(client.queries_used(), 1);

    // Drift guard: every shed refunded exactly once, and the net charge
    // equals served + failed.
    let mine = client.stats().unwrap();
    assert_eq!(mine.refunded, mine.deadline_misses);
    assert_eq!(mine.charged, mine.served + mine.failed);

    let stats = service.shutdown();
    assert_eq!(stats.deadline_misses, 3);
    assert_eq!(stats.refunded, 3);
    assert_eq!(stats.served, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn mutations_swap_epochs_under_live_queries() {
    let (system, ds) = make_system(514, false);
    let video = ds.video(ds.test()[0]);
    let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
    let client = service.client(Some(20), None);
    let mutator = service.mutator();

    let before = client.retrieve(&video).unwrap();
    assert_eq!(mutator.current_epoch(), Some(0));

    // Plant a gallery entry exactly on the query's embedding: after the
    // epoch swap it must rank first, without restarting the service.
    let mut q = video.clone();
    q.quantize();
    let feature = service.system().embed(&q).unwrap();
    let planted = VideoId { class: 77, instance: 0 };
    let t = mutator.insert(planted, feature).unwrap();
    assert_eq!(t.epoch, 1);
    let after = client.retrieve(&video).unwrap();
    assert_eq!(after[0], planted, "planted duplicate embedding must rank first");
    assert_ne!(before[0], planted);

    // Deleting it restores the original ranking.
    mutator.delete(planted).unwrap();
    assert_eq!(client.retrieve(&video).unwrap(), before);

    let stats = service.stats();
    assert_eq!(stats.current_epoch, 2);
    assert_eq!(stats.max_epoch_served, 2);
    assert_eq!(stats.epochs_published, 2);
    assert_eq!(stats.mutations_applied, 2);

    // Drift guard across the swaps: charges stayed consistent.
    let mine = client.stats().unwrap();
    assert_eq!(mine.charged, mine.served + mine.failed);
    assert_eq!(mine.refunded, mine.deadline_misses);

    let (recovered, final_stats) = service.shutdown_into();
    assert_eq!(final_stats.served, 3);
    assert!(recovered.is_some());

    // Outstanding mutator handles observe the shutdown.
    match mutator.insert(planted, duo_tensor::Tensor::from_vec(vec![0.0], &[1]).unwrap()) {
        Err(ServeError::Stopped) => {}
        other => panic!("expected Stopped, got {other:?}"),
    }
}

#[test]
fn default_deadline_applies_to_plain_retrieve() {
    let (system, ds) = make_system(513, false);
    let videos = queries(&ds, 2);
    let config = ServeConfig { default_deadline: Some(Duration::ZERO), ..ServeConfig::default() };
    let service = RetrievalService::start(system, config).unwrap();
    let client = service.client(Some(5), None);
    for video in &videos {
        assert!(matches!(client.retrieve(video), Err(ServeError::DeadlineExceeded)));
    }
    assert_eq!(client.queries_used(), 0);

    // An explicit per-request deadline overrides the service default.
    let list = client.retrieve_with_deadline(&videos[0], Duration::from_secs(30)).unwrap();
    assert_eq!(list.len(), 5);

    let stats = service.shutdown();
    assert_eq!(stats.deadline_misses, 2);
    assert_eq!(stats.served, 1);
}
