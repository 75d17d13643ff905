//! A crash-consistent key-value service on secure NVM.
//!
//! The domain scenario from the paper's introduction, promoted to a
//! service: two tenants offer open-loop zipfian GET/PUT traffic to a
//! secure-KV front-end (star-serve) running on the STAR scheme. Mid
//! stream the machine loses power; STAR restores the security metadata
//! from its dirty-set journal, and — because counter-MAC synergization
//! persisted every counter update with its data — every record written
//! before the crash reads back *and verifies* afterwards. We prove that
//! the strong way: 32 "important" records are written before the power
//! failure and read back, MAC-checked, after recovery.
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```

use star::serve::{SecureKv, ServeScheme};
use star::trace::Log2Hist;
use star::workloads::{LoadShape, OpenLoopArrivals, Zipfian};
use star_core::SecureMemConfig;
use star_rng::SimRng;

/// One tenant's offered load.
struct Tenant {
    name: &'static str,
    rate_per_s: f64,
    theta: f64,
    keys: u64,
    key_base: u64,
    read_fraction: f64,
}

fn main() {
    let mem = SecureMemConfig::small();
    let dl = mem.data_lines;
    let horizon_ns: u64 = 2_000_000_000; // 2 simulated seconds
    let crash_at_ns = horizon_ns / 2;
    let seed = 2024u64;

    // Two tenants over disjoint key ranges, leaving the middle quarter
    // of the data region free for our out-of-band important records.
    let tenants = [
        Tenant {
            name: "hot",
            rate_per_s: 400.0,
            theta: 0.99,
            keys: dl / 8,
            key_base: 0,
            read_fraction: 0.5,
        },
        Tenant {
            name: "scan",
            rate_per_s: 150.0,
            theta: 0.6,
            keys: dl / 2,
            key_base: dl / 2,
            read_fraction: 0.9,
        },
    ];

    // Generate both arrival streams and merge them by arrival time.
    let mut reqs: Vec<(u64, usize, u64, bool)> = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        let zipf = Zipfian::new(t.keys, t.theta);
        let mut op_rng = SimRng::seed_from_u64(seed ^ ((ti as u64 + 1) * 0x9e37_79b9));
        for at_ns in OpenLoopArrivals::new(
            seed.wrapping_add(ti as u64),
            t.rate_per_s,
            LoadShape::flat(),
            horizon_ns,
        ) {
            let key = t.key_base + zipf.sample(&mut op_rng);
            reqs.push((at_ns, ti, key, op_rng.gen_bool(t.read_fraction)));
        }
    }
    reqs.sort_by_key(|&(at, ti, _, _)| (at, ti));
    println!(
        "offered load: {} requests over {} ms from {} tenants",
        reqs.len(),
        horizon_ns / 1_000_000,
        tenants.len()
    );

    // Phase 1: serve traffic up to the power failure, and write the 32
    // important records (in the reserved key range) before it hits.
    let mut kv = SecureKv::new(ServeScheme::Star, mem);
    let important: Vec<(u64, u64)> = (0..32).map(|i| (dl / 4 + i * 7, 0xbeef_0000 + i)).collect();
    for &(line, value) in &important {
        kv.put(line, value);
    }

    let mut latency = Log2Hist::new();
    let mut per_tenant = [0u64; 2];
    let mut server_free_ns = 0u64;
    let mut crashed = false;
    for &(at_ns, ti, key, is_read) in &reqs {
        if !crashed && at_ns >= crash_at_ns {
            // Power failure at a request boundary, 1 ms platform reboot.
            let span = kv.crash_recover(crash_at_ns, 1_000_000);
            println!(
                "power lost at {} ms: {} stale nodes restored with {} NVM \
                 reads; down for {:.3} ms (reboot + recovery)",
                span.at_ns / 1_000_000,
                span.stale_nodes,
                span.nvm_reads,
                span.total_ns() as f64 / 1e6
            );
            server_free_ns = server_free_ns.max(crash_at_ns) + span.total_ns();
            crashed = true;
        }
        let start_ns = server_free_ns.max(at_ns);
        let t0_ps = kv.now_ps();
        if is_read {
            let _ = kv.get(key);
        } else {
            kv.put(key, at_ns);
        }
        let service_ns = (kv.now_ps() - t0_ps).div_ceil(1000).max(1);
        server_free_ns = start_ns + service_ns;
        latency.observe(server_free_ns - at_ns);
        per_tenant[ti] += 1;
    }
    assert!(crashed, "the crash must land mid-stream");

    // Phase 2: the important records survived the crash. Every GET here
    // decrypts with the restored counter and verifies the stored MAC: a
    // wrong counter fails verification with an `IntegrityError`, which
    // `get` refuses to serve, instead of returning garbage.
    let mut verified = 0;
    for &(line, value) in &important {
        let got = kv.get(line);
        assert_eq!(
            got, value,
            "record at line {line} must survive the power failure"
        );
        verified += 1;
    }
    println!("verified {verified}/32 important records after recovery");

    for (t, served) in tenants.iter().zip(per_tenant) {
        println!("tenant {:<4} served {served} requests", t.name);
    }
    println!(
        "latency p50 {} ns, p99 {} ns, p999 {} ns, max {} ns",
        latency.quantile(0.50),
        latency.quantile(0.99),
        latency.quantile(0.999),
        latency.max()
    );

    let totals = kv.finish();
    println!(
        "horizon totals: {} NVM writes, {} NVM reads, {:.1} uJ",
        totals.nvm_writes,
        totals.nvm_reads,
        totals.energy_pj() as f64 / 1e6
    );
}
