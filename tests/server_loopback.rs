//! Loopback integration test: a real `strided` daemon on an ephemeral
//! port, eight concurrent clients, and byte-identity between every wire
//! response and the equivalent direct `stride_core` pipeline call — the
//! service must add *nothing* to the reproduction's numbers, at any
//! worker count and client concurrency.

use stride_prefetch::core::{
    classify, measure_speedup, run_profiling, PipelineConfig, ProfilingVariant, Snapshot,
};
use stride_prefetch::ir::module_to_string;
use stride_prefetch::profdb::{module_hash, ProfileEntry};
use stride_prefetch::server::{
    render_classification, render_speedup, Client, ErrorKind, Request, Response, Server,
    ServerConfig, ServiceConfig,
};
use stride_prefetch::workloads::{workload_by_name, Scale};

fn ok_body(resp: Response) -> String {
    match resp {
        Response::Ok(body) => body,
        Response::Err { kind, message, .. } => panic!("unexpected error [{kind}]: {message}"),
    }
}

#[test]
fn eight_concurrent_clients_match_direct_pipeline_byte_for_byte() {
    let w = workload_by_name("mcf", Scale::Test).expect("known workload");
    let config = PipelineConfig::default();

    // Ground truth straight from the pipeline, with no daemon involved.
    let out = run_profiling(
        &w.module,
        &w.train_args,
        ProfilingVariant::EdgeCheck,
        &config,
    )
    .expect("direct profiling succeeds");
    let expected_profile =
        ProfileEntry::from_run(w.name, module_hash(&w.module), &out.edge, &out.stride).to_text();
    let expected_classify = render_classification(&classify(
        &w.module,
        &out.stride,
        &out.edge,
        out.source,
        &config.prefetch,
    ));
    let expected_prefetch = render_speedup(
        &measure_speedup(
            &w.module,
            &w.train_args,
            &w.ref_args,
            ProfilingVariant::EdgeCheck,
            &config,
        )
        .expect("direct speedup succeeds"),
    );

    let db_root = std::env::temp_dir().join(format!("server-loopback-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db_root);
    let mut server_config = ServerConfig::loopback(ServiceConfig::new(db_root.clone()));
    server_config.workers = 8;
    let server = Server::start(server_config).expect("daemon starts");
    let addr = server.addr();

    let mut setup = Client::connect(addr).expect("connect");
    let body = ok_body(
        setup
            .call(&Request::SubmitModule {
                workload: w.name.to_string(),
                text: module_to_string(&w.module),
            })
            .expect("submit round trip"),
    );
    assert!(body.starts_with("module "), "{body}");

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let w = &w;
                let expected_profile = &expected_profile;
                let expected_classify = &expected_classify;
                let expected_prefetch = &expected_prefetch;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    for _ in 0..ROUNDS {
                        let got = ok_body(
                            client
                                .call(&Request::Profile {
                                    workload: w.name.to_string(),
                                    variant: ProfilingVariant::EdgeCheck,
                                    args: w.train_args.clone(),
                                })
                                .expect("profile round trip"),
                        );
                        assert_eq!(&got, expected_profile, "profile bytes diverged");

                        let got = ok_body(
                            client
                                .call(&Request::Classify {
                                    workload: w.name.to_string(),
                                    variant: ProfilingVariant::EdgeCheck,
                                    args: w.train_args.clone(),
                                })
                                .expect("classify round trip"),
                        );
                        assert_eq!(&got, expected_classify, "classify bytes diverged");

                        let got = ok_body(
                            client
                                .call(&Request::Prefetch {
                                    workload: w.name.to_string(),
                                    variant: ProfilingVariant::EdgeCheck,
                                    train_args: w.train_args.clone(),
                                    ref_args: w.ref_args.clone(),
                                })
                                .expect("prefetch round trip"),
                        );
                        assert_eq!(&got, expected_prefetch, "prefetch bytes diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // Every profile request above merged one run into the database.
    let accumulated = ok_body(
        setup
            .call(&Request::GetProfile {
                workload: w.name.to_string(),
            })
            .expect("get-profile round trip"),
    );
    let entry = ProfileEntry::from_text(&accumulated).expect("db entry parses");
    assert_eq!(entry.runs, (CLIENTS * ROUNDS) as u64, "run accumulation");

    // Unknown workloads answer with a typed error, not a dropped
    // connection.
    let resp = setup
        .call(&Request::GetProfile {
            workload: "nonesuch".to_string(),
        })
        .expect("round trip");
    assert!(
        matches!(
            resp,
            Response::Err {
                kind: ErrorKind::NotFound,
                ..
            }
        ),
        "{resp:?}"
    );

    let stats = ok_body(setup.call(&Request::Stats).expect("stats round trip"));
    let snap = Snapshot::parse(&stats).expect("stats is a registry snapshot");
    assert!(snap.counter("server.req.profile").is_some(), "{stats}");

    let bye = ok_body(setup.call(&Request::Shutdown).expect("shutdown round trip"));
    assert!(bye.contains("shutting down"), "{bye}");
    server.join();
    let _ = std::fs::remove_dir_all(&db_root);
}
