//! Shared harness: an in-process server on a free port, and the batch
//! path's bytes to compare its results against.

use std::net::SocketAddr;
use std::thread::JoinHandle;

use fairswap_core::{run_summary_csv, SimSpec};
use fairswap_serve::{SchedulerOptions, ServeOptions, ServeSummary, Server, ShutdownHandle};

/// The batch path's answer for a spec document: parse, build, run, and
/// serialize with the same `run_summary_csv` the CLI `run` command uses.
pub fn batch_csv(json: &str) -> Vec<u8> {
    let spec = SimSpec::from_json(json).expect("fixture spec parses");
    let report = spec.build().expect("fixture spec builds").run();
    run_summary_csv(report.config(), &report)
        .to_csv_string()
        .into_bytes()
}

pub struct TestServer {
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    daemon: JoinHandle<std::io::Result<ServeSummary>>,
}

impl TestServer {
    /// Binds a server on a free localhost port and serves on a
    /// background thread.
    pub fn start(workers: usize, cache_cap: usize) -> Self {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerOptions {
                workers,
                cache_cap,
                ..SchedulerOptions::default()
            },
        })
        .expect("binding test server");
        let addr = server.local_addr().expect("resolving test server address");
        let shutdown = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run());
        Self {
            addr,
            shutdown,
            daemon,
        }
    }

    /// Triggers graceful drain and returns the final counters.
    pub fn stop(self) -> ServeSummary {
        self.shutdown.shutdown();
        self.daemon
            .join()
            .expect("test server thread panicked")
            .expect("test server failed")
    }
}
