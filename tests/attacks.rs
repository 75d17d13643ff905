//! Attack matrix: every attack class, on crash images from several
//! workloads, must be detected by STAR's cache-tree verification, and a
//! tampered line a resumed engine reads must come back as an
//! `IntegrityError`. A malformed Anubis image must come back as an
//! error, not a panic.

use star::core::recovery::{recover, Attack, RecoveryError};
use star::core::{IntegrityError, SchemeKind, SecureMemConfig, SecureMemory};
use star::metadata::NodeChild;
use star::nvm::{Line, LineAddr};
use star::workloads::WorkloadKind;
use std::collections::BTreeMap;

fn crash_image(kind: WorkloadKind) -> star::core::CrashImage {
    let mut mem = SecureMemory::new(SchemeKind::Star, SecureMemConfig::default());
    let mut wl = kind.instantiate(5);
    wl.run(1_500, &mut mem);
    let image = mem.crash();
    assert!(
        image.stale_node_count() > 0,
        "{kind} must leave stale metadata"
    );
    image
}

/// Finds a stale counter block in the image and one of its written data
/// children.
fn stale_cb_and_child(image: &star::core::CrashImage) -> (u64, LineAddr, LineAddr) {
    let geometry = image.geometry().clone();
    for flat in image.stale_nodes() {
        let Some(node) = geometry.node_at_flat(flat) else {
            continue;
        };
        if node.level != 0 {
            continue;
        }
        let node_line = geometry.line_of(node);
        for slot in 0..8 {
            if let Some(NodeChild::DataLine(d)) = geometry.child(node, slot) {
                let child = LineAddr::new(d);
                if !image.store.read(child).is_zero() {
                    return (flat, node_line, child);
                }
            }
        }
    }
    panic!("no stale counter block with written children");
}

fn expect_detected(mut image: star::core::CrashImage, attack: Attack, label: &str) {
    image.apply_attack(&attack);
    match recover(&mut image) {
        Err(RecoveryError::AttackDetected {
            expected,
            recomputed,
        }) => {
            assert_ne!(expected, recomputed, "{label}: roots must differ");
        }
        other => panic!("{label}: expected detection, got {other:?}"),
    }
}

#[test]
fn tampering_detected_across_workloads() {
    for kind in WorkloadKind::ALL {
        let image = crash_image(kind);
        // Tamper a genuinely stale node (its NVM MSBs feed recovery).
        let geometry = image.geometry().clone();
        let flat = *image.stale_nodes().first().expect("stale nodes exist");
        let node = geometry.node_at_flat(flat).expect("metadata");
        expect_detected(
            image,
            Attack::TamperLine {
                addr: geometry.line_of(node),
                xor_byte: 0x40,
            },
            &format!("tamper/{kind}"),
        );
    }
}

#[test]
fn lsb_replay_detected() {
    let image = crash_image(WorkloadKind::Array);
    let (_, _, child) = stale_cb_and_child(&image);
    expect_detected(
        image,
        Attack::ReplayChildTuple {
            child_addr: child,
            lsb_delta: 1,
        },
        "lsb-replay",
    );
}

#[test]
fn lsb_replay_of_larger_delta_detected() {
    let image = crash_image(WorkloadKind::Hash);
    let (_, _, child) = stale_cb_and_child(&image);
    expect_detected(
        image,
        Attack::ReplayChildTuple {
            child_addr: child,
            lsb_delta: 512,
        },
        "lsb-replay-large",
    );
}

#[test]
fn bitmap_hiding_detected() {
    let image = crash_image(WorkloadKind::Ycsb);
    let (flat, _, _) = stale_cb_and_child(&image);
    expect_detected(
        image,
        Attack::TamperBitmap { meta_idx: flat },
        "bitmap-hide",
    );
}

#[test]
fn untampered_control_always_passes() {
    for kind in WorkloadKind::ALL {
        let mut image = crash_image(kind);
        let report = recover(&mut image).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.verified && report.correct, "{kind}");
    }
}

/// Flips the bits of `mask` in byte `byte` of the stored line at `addr`.
fn flip(image: &mut star::core::CrashImage, addr: LineAddr, byte: usize, mask: u8) {
    let mut line = image.store.read(addr);
    line.as_bytes_mut()[byte] ^= mask;
    image.store.write(addr, line);
}

/// Not a recovery attack: tamper a recovered image, resume from it, and
/// watch the lazy SIT catch it on the first fetch. The failure comes
/// back as a value naming the line or node, and it halts the engine.
#[test]
fn runtime_tampering_is_caught_by_sit_verification() {
    for scheme in [SchemeKind::Star, SchemeKind::Anubis] {
        let cfg = SecureMemConfig::default();
        let mut mem = SecureMemory::new(scheme, cfg.clone());
        // 37 is coprime to 512: every line of 0..512 is committed.
        let mut committed = BTreeMap::new();
        for i in 0..2_000u64 {
            let line = (i * 37) % 512;
            mem.write_data(line, i + 1);
            mem.persist_data(line);
            committed.insert(line, i + 1);
        }
        let mut image = mem.crash();
        let report = recover(&mut image).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(report.verified && report.correct, "{scheme}");
        // Two committed lines under different counter blocks.
        let (victim, untouched) = (185, 400);
        let geometry = image.geometry().clone();
        let (cb, _) = geometry.parent_of_data(victim);
        assert_ne!(cb, geometry.parent_of_data(untouched).0);
        let resume =
            |image: &star::core::CrashImage| SecureMemory::resume_from_image(image, cfg.clone());

        let mut clean = resume(&image);
        for (&line, &version) in &committed {
            assert_eq!(clean.read_data(line), Ok(version), "{scheme}: line {line}");
        }

        // A bit of the victim's stored data MAC.
        let mut mac_flipped = image.clone();
        flip(&mut mac_flipped, LineAddr::new(victim), 63, 0x10);
        // A counter bit of the counter block covering the victim.
        let mut counter_flipped = image.clone();
        let cb_line = geometry.line_of(cb);
        assert!(!counter_flipped.store.read(cb_line).is_zero(), "{scheme}");
        flip(&mut counter_flipped, cb_line, 2, 0x02);

        for (tampered, err) in [
            (mac_flipped, IntegrityError::DataMac { line: victim }),
            (counter_flipped, IntegrityError::NodeMac { node: cb }),
        ] {
            let mut m = resume(&tampered);
            assert_eq!(m.read_data(victim), Err(err), "{scheme}");
            assert_eq!(m.integrity_error(), Some(err), "{scheme}");
            // The engine halted: an untampered line returns the same error.
            assert_eq!(m.read_data(untouched), Err(err), "{scheme}");
        }
    }
}

/// A shadow-table line of all `0xFF` decodes to an entry whose metadata
/// index is out of range. Anubis recovery refuses the image and names
/// the line instead of panicking.
#[test]
fn anubis_malformed_shadow_entry_is_an_error_not_a_panic() {
    let mut mem = SecureMemory::new(SchemeKind::Anubis, SecureMemConfig::default());
    for i in 0..200 {
        mem.write_data(i, i + 1);
    }
    let mut image = mem.crash();
    let line = LineAddr::new(image.shadow_table().start);
    image.store.write(line, Line::filled(0xFF));
    match recover(&mut image) {
        Err(e @ RecoveryError::MalformedImage { line: bad }) => {
            assert_eq!(bad, line);
            assert!(e.to_string().contains("malformed"), "{e}");
        }
        other => panic!("expected a malformed-image error, got {other:?}"),
    }
}
