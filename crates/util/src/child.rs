//! The cross-process determinism harness and the workspace's one FNV-1a.
//!
//! The worker pool reads `BENCHTEMP_THREADS` once per process, so every
//! thread-count comparison re-executes the current binary as a child.
//! A child is marked by the single env var `BENCHTEMP_CHILD`
//! ([`is_child`]), computes its digest, and prints one `RESULT <payload>`
//! line ([`report`]). [`spawn`] runs one child and returns its payload;
//! [`assert_bit_identical`] runs the three [`ARMS`] — 1 thread, 4 threads,
//! 4 threads with `BENCHTEMP_SANITIZE=1` — and fails naming the first arm
//! whose payload differs from the 1-thread reference.

use std::process::Command;

use crate::env::{self, Knob};

/// Standard 64-bit FNV-1a over a byte stream. Multi-byte words are fed in
/// little-endian order, so digests are endian-stable and comparable across
/// processes and hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Digest of one byte slice.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    pub fn write_f32(&mut self, x: f32) {
        self.write(&x.to_bits().to_le_bytes());
    }

    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// True inside a child spawned by [`spawn`].
pub fn is_child() -> bool {
    env::var(Knob::Child).is_some()
}

/// Child side: print the payload on the `RESULT` marker line [`spawn`]
/// looks for. The payload must fit on one line.
pub fn report(payload: impl std::fmt::Display) {
    println!("RESULT {payload}");
}

/// One process configuration of the determinism matrix.
#[derive(Clone, Copy, Debug)]
pub struct Arm {
    pub name: &'static str,
    pub threads: usize,
    pub sanitize: bool,
}

/// The matrix every digest must survive unchanged. The first arm is the
/// reference the others are compared against.
pub const ARMS: [Arm; 3] = [
    Arm {
        name: "1 thread",
        threads: 1,
        sanitize: false,
    },
    Arm {
        name: "4 threads",
        threads: 4,
        sanitize: false,
    },
    Arm {
        name: "4 threads + sanitize",
        threads: 4,
        sanitize: true,
    },
];

/// Re-execute the current binary with `args`, `BENCHTEMP_CHILD=1`,
/// `BENCHTEMP_THREADS=threads` and `BENCHTEMP_SANITIZE` set exactly when
/// `sanitize` is, and return the child's `RESULT` payload.
pub fn spawn(args: &[&str], threads: usize, sanitize: bool) -> String {
    let exe = std::env::current_exe().expect("current executable");
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env(Knob::Child.name(), "1")
        .env(Knob::Threads.name(), threads.to_string());
    if sanitize {
        cmd.env(Knob::Sanitize.name(), "1");
    } else {
        cmd.env_remove(Knob::Sanitize.name());
    }
    let out = cmd.output().expect("spawn child process");
    assert!(
        out.status.success(),
        "child {args:?} (threads={threads}, sanitize={sanitize}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest's progress text can share a line with the worker's output,
    // so the marker is matched anywhere in the line.
    stdout
        .lines()
        .find_map(|l| l.find("RESULT ").map(|at| l[at + 7..].to_string()))
        .unwrap_or_else(|| panic!("no RESULT line from child {args:?}:\n{stdout}"))
}

/// Run `args` under every arm of [`ARMS`], in order.
pub fn run_arms(args: &[&str]) -> Vec<String> {
    ARMS.iter()
        .map(|arm| spawn(args, arm.threads, arm.sanitize))
        .collect()
}

/// Panic naming the first arm whose value of `what` differs from the
/// reference arm's. `values` holds one entry per arm of [`ARMS`].
pub fn assert_arms_agree<T: PartialEq + std::fmt::Debug>(what: &str, values: &[T]) {
    assert_eq!(values.len(), ARMS.len(), "one value per arm");
    for (arm, v) in ARMS.iter().zip(values).skip(1) {
        assert!(
            *v == values[0],
            "{what} diverged in arm `{}` from arm `{}`: {v:?} != {:?}",
            arm.name,
            ARMS[0].name,
            values[0]
        );
    }
}

/// The driver: run `args` under all three arms, assert the payloads are
/// bit-identical, and return the agreed payload.
pub fn assert_bit_identical(args: &[&str]) -> String {
    let mut payloads = run_arms(args);
    assert_arms_agree("payload", &payloads);
    payloads.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf29ce484222325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn words_are_fed_little_endian() {
        let mut h = Fnv1a::new();
        h.write_u64(0x0102);
        h.write_f32(1.5);
        h.write_f64(-2.0);
        let mut bytes = Vec::new();
        bytes.extend(0x0102u64.to_le_bytes());
        bytes.extend(1.5f32.to_bits().to_le_bytes());
        bytes.extend((-2.0f64).to_bits().to_le_bytes());
        assert_eq!(h.finish(), Fnv1a::hash(&bytes));
    }
}
