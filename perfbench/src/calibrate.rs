//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host, whose speed for
//! memory-bound code drifts by up to ±30% in regimes of tens of seconds
//! to minutes, with no CPU steal reported (see README.md, "Noise"). A
//! run cannot average such a shift away. So a fixed probe — code of the
//! benchmark's own, never the program's — runs between operations, and
//! the end-to-end host times are scaled by the host speed it measured:
//! `speed = PROBE_REFERENCE_S / mean probe seconds` and
//! `wall_s = raw wall × speed`. A change to the program moves the
//! scaled times as much as the raw ones; a change in the host's speed
//! moves the probe too and cancels out.
//!
//! The benchmark binary runs its probes in child processes
//! (`perfbench --probe`), so that the probe's memory never shares an
//! allocator or a resident set with the program under test.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// The probe's host seconds at the reference speed: its typical time
/// on the 2-core Xeon VM the benchmark was tuned on. Scaled times read
/// as seconds on that host.
pub const PROBE_REFERENCE_S: f64 = 0.06;

/// Least host time between the end of one probe and the next inside a
/// timed loop.
const PROBE_EVERY: Duration = Duration::from_secs(1);

/// Where probes run.
#[derive(Clone, Debug)]
pub enum Prober {
    /// `<program> --probe` in a child process, which prints
    /// [`probe_seconds`].
    Child(PathBuf),
    /// In this process: for the self-check's tiny sizes, where the
    /// program's memory footprint is not measured.
    InProcess,
}

impl Prober {
    /// The running benchmark binary as a child prober.
    pub fn this_program() -> Prober {
        Prober::Child(std::env::current_exe().expect("the benchmark binary has a path"))
    }

    fn probe(&self) -> f64 {
        match self {
            Prober::InProcess => probe_seconds(),
            Prober::Child(program) => {
                let out = Command::new(program)
                    .arg("--probe")
                    .output()
                    .expect("start a probe process");
                assert!(out.status.success(), "probe process failed: {out:?}");
                String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .parse()
                    .expect("a probe process prints its seconds")
            }
        }
    }
}

/// The probes of one run.
pub struct Calibrator {
    prober: Prober,
    times: Vec<f64>,
    last: Instant,
}

impl Calibrator {
    /// A calibrator that has made one probe.
    pub fn new(prober: &Prober) -> Calibrator {
        let mut calibrator = Calibrator {
            prober: prober.clone(),
            times: Vec::new(),
            last: Instant::now(),
        };
        calibrator.probe();
        calibrator
    }

    /// Probe now.
    pub fn probe(&mut self) {
        self.times.push(self.prober.probe());
        self.last = Instant::now();
    }

    /// Probe if [`PROBE_EVERY`] has passed since the last probe.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PROBE_EVERY {
            self.probe();
        }
    }

    /// [`PROBE_REFERENCE_S`] ÷ the mean probe time: above 1 when the
    /// host ran faster than the reference.
    pub fn speed(&self) -> f64 {
        PROBE_REFERENCE_S * self.times.len() as f64 / self.times.iter().sum::<f64>()
    }

    pub fn probes(&self) -> usize {
        self.times.len()
    }
}

/// Host seconds of one probe: a fixed mix of the memory traffic the
/// pipeline makes — random reads over a 16 MiB table, inserts and
/// lookups in a 128 Ki-key hash map and an unstable sort of 256 Ki keys
/// — on inputs from a fixed xorshift stream. The buffers are allocated
/// and touched by an untimed pass first, so the timed pass measures the
/// memory system rather than page faults.
pub fn probe_seconds() -> f64 {
    let mut buffers = ProbeBuffers::new();
    buffers.pass();
    let start = Instant::now();
    buffers.pass();
    start.elapsed().as_secs_f64()
}

const TABLE: usize = 1 << 22;
const KEYS: usize = 1 << 17;
const SORTED: usize = 1 << 18;

struct ProbeBuffers {
    table: Vec<u32>,
    keys: Vec<u64>,
    map: HashMap<u64, usize>,
    sorted: Vec<u32>,
}

impl ProbeBuffers {
    fn new() -> ProbeBuffers {
        ProbeBuffers {
            table: vec![0; TABLE],
            keys: vec![0; KEYS],
            map: HashMap::with_capacity(KEYS),
            sorted: vec![0; SORTED],
        }
    }

    fn pass(&mut self) {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for slot in &mut self.table {
            *slot = next() as u32;
        }
        let mut acc = 0u64;
        for _ in 0..2_000_000 {
            acc = acc.wrapping_add(u64::from(self.table[next() as usize & (TABLE - 1)]));
        }
        for key in &mut self.keys {
            *key = next();
        }
        self.map.clear();
        self.map
            .extend(self.keys.iter().enumerate().map(|(i, &key)| (key, i)));
        for key in &self.keys {
            acc = acc.wrapping_add(self.map[key] as u64);
        }
        for slot in &mut self.sorted {
            *slot = next() as u32;
        }
        self.sorted.sort_unstable();
        acc = acc.wrapping_add(u64::from(self.sorted[SORTED / 2]));
        std::hint::black_box(acc);
    }
}
