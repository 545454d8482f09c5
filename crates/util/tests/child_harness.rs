//! The determinism harness must catch a seeded mismatch and name the arm
//! that diverged. Each worker folds one piece of its process configuration
//! into its digest, so exactly one arm disagrees with the 1-thread
//! reference.

use benchtemp_util::child::{self, Fnv1a};
use benchtemp_util::env::{self, Knob};

fn digest(extra: &str) -> String {
    let mut h = Fnv1a::new();
    h.write(b"same input in every process");
    h.write(extra.as_bytes());
    format!("{:016x}", h.finish())
}

#[test]
fn agreeing_worker() {
    if child::is_child() {
        child::report(digest(""));
    }
}

#[test]
fn thread_folding_worker() {
    if child::is_child() {
        child::report(digest(&env::var(Knob::Threads).unwrap()));
    }
}

#[test]
fn sanitize_folding_worker() {
    if child::is_child() {
        child::report(digest(&format!("{:?}", env::var(Knob::Sanitize))));
    }
}

/// The panic message of the driver run on `worker`.
fn driver_failure(worker: &str) -> String {
    let err = std::panic::catch_unwind(|| {
        child::assert_bit_identical(&[worker, "--exact", "--nocapture"])
    })
    .expect_err("a seeded mismatch must fail the driver");
    err.downcast_ref::<String>()
        .cloned()
        .expect("formatted panic message")
}

#[test]
fn agreeing_payloads_pass_and_are_returned() {
    let payload = child::assert_bit_identical(&["agreeing_worker", "--exact", "--nocapture"]);
    assert_eq!(payload, digest(""));
}

#[test]
fn thread_count_in_digest_fails_naming_the_four_thread_arm() {
    let msg = driver_failure("thread_folding_worker");
    assert!(
        msg.contains("diverged in arm `4 threads` from arm `1 thread`"),
        "{msg}"
    );
}

#[test]
fn sanitize_flag_in_digest_fails_naming_the_sanitize_arm() {
    let msg = driver_failure("sanitize_folding_worker");
    assert!(
        msg.contains("diverged in arm `4 threads + sanitize` from arm `1 thread`"),
        "{msg}"
    );
}
