//! # ehs-workloads — the 20 benchmark kernels
//!
//! The paper evaluates IPEX on 20 applications from MediaBench and
//! MiBench. Those suites ship as C programs for a real toolchain; this
//! workspace has no ARM compiler, so each application's *algorithmic
//! kernel* is re-implemented directly in EHS-RV assembly with the same
//! memory-access character (sequential streams, fixed strides, table
//! lookups, pointer chasing) — see `DESIGN.md` for the substitution
//! rationale. Inputs are generated in-program from a seeded LCG so the
//! binaries are self-contained.
//!
//! Every workload leaves a 32-bit checksum in `a0` (and at the `result`
//! data label); [`Workload::reference_checksum`] computes the same value
//! with a plain-Rust model, which the test suite uses to prove each
//! kernel computes what it claims, instruction for instruction.
//!
//! ```
//! use ehs_isa::{Interpreter, Reg};
//!
//! let w = ehs_workloads::by_name("qsort").unwrap();
//! let program = w.program();
//! let mut vm = Interpreter::new(&program);
//! vm.run(50_000_000).unwrap();
//! assert_eq!(vm.reg(Reg::A0), w.reference_checksum());
//! ```

mod codec;
mod crypto;
mod image;
mod math;
mod search;
mod transform;

use std::sync::OnceLock;

use ehs_isa::{asm, Program};

/// The shared LCG used by every workload's in-program input generator:
/// `x ← x·1664525 + 1013904223` (Numerical Recipes).
#[inline]
pub fn lcg_next(x: u32) -> u32 {
    x.wrapping_mul(1664525).wrapping_add(1013904223)
}

/// The shared checksum folding step: `cs ← cs·31 + v`.
#[inline]
pub fn checksum_fold(cs: u32, v: u32) -> u32 {
    cs.wrapping_mul(31).wrapping_add(v)
}

/// Generates a straight-line diffusion chain of `count` ALU instructions
/// over scratch register `reg` (e.g. `"t0"`), seeded deterministically.
///
/// The kernelisation that turned each MediaBench/MiBench application
/// into an assembly kernel removed the bulk of the original binaries'
/// straight-line code (tens of kilobytes). These pad blocks restore a
/// realistic instruction footprint inside each kernel's hot loop so the
/// 2 kB ICache sees the capacity pressure the paper's Figure 2 reports;
/// they only consume fetch bandwidth and ALU cycles — the value chain is
/// architecturally dead, so the reference checksums are untouched. See
/// `DESIGN.md` for the substitution note.
/// Pad code mimics the *phase* structure of the full applications: four
/// alternative code regions (think: different functions of the original
/// program), selected by the loop counter and switched every 16
/// iterations. Within a 16-iteration window the active phase stays
/// ICache-resident (low miss rate, as the paper's Fig. 15 reports); a
/// phase switch walks a cold region of straight-line code, producing the
/// sequential miss bursts that next-line prefetchers cover. Each phase
/// also contains short jumped-over cold runs and ends by falling toward
/// the next phase's code, so a sequential prefetcher overruns into code
/// that will not execute for thousands of cycles — the useless-prefetch
/// exposure IPEX throttles.
///
/// `idx_reg` is read (a loop counter); `reg` is a dead scratch register
/// the diffusion chain writes; the chain's value feeds nothing, so the
/// reference checksums are untouched.
pub(crate) fn pad_asm(idx_reg: &str, reg: &str, seed: u32, per_phase: usize) -> String {
    const PHASES: usize = 4;
    let mut out = String::with_capacity(PHASES * per_phase * 24);
    let mut x = seed ^ 0x9e37_79b9;
    let op_of = |x: &mut u32, i: usize| {
        *x = lcg_next(*x);
        let c = (*x >> 18) & 0x1fff; // positive, fits imm18
        let op = match i % 4 {
            0 => "xori",
            1 => "addi",
            2 => "ori",
            _ => "andi",
        };
        format!("    {op} {reg}, {reg}, {c}\n")
    };
    // Dispatch: phase = (idx >> 4) & 3.
    out.push_str(&format!("    srli {reg}, {idx_reg}, 4\n"));
    out.push_str(&format!("    andi {reg}, {reg}, 3\n"));
    for p in 1..PHASES {
        out.push_str(&format!("    addi {reg}, {reg}, -1\n"));
        out.push_str(&format!("    bltz {reg}, pad{seed:x}_ph{q}\n", q = p - 1));
    }
    out.push_str(&format!("    j    pad{seed:x}_ph{q}\n", q = PHASES - 1));
    let mut chunk = 0usize;
    for p in 0..PHASES {
        out.push_str(&format!("pad{seed:x}_ph{p}:\n"));
        let mut emitted = 0usize;
        while emitted < per_phase {
            x = lcg_next(x);
            let live = 28 + ((x >> 20) % 25) as usize; // 28..=52 executed ops
            x = lcg_next(x);
            let dead = 2 + ((x >> 20) % 3) as usize; // 2..=4 skipped ops
            for i in 0..live.min(per_phase - emitted) {
                out.push_str(&op_of(&mut x, i));
                emitted += 1;
            }
            if emitted >= per_phase {
                break;
            }
            let label = format!("pad{seed:x}_{chunk}");
            chunk += 1;
            out.push_str(&format!("    j    {label}\n"));
            emitted += 1;
            for i in 0..dead {
                out.push_str(&op_of(&mut x, i + 1));
            }
            out.push_str(&format!("{label}:\n"));
        }
        out.push_str(&format!("    j    pad{seed:x}_end\n"));
    }
    out.push_str(&format!("pad{seed:x}_end:\n"));
    out
}

/// One benchmark kernel: a generated assembly source plus its reference
/// model.
#[derive(Clone, Copy)]
pub struct Workload {
    name: &'static str,
    description: &'static str,
    gen: fn() -> String,
    reference: fn() -> u32,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish()
    }
}

impl Workload {
    /// The benchmark's name as used in the paper's figures
    /// (e.g. `"adpcmd"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description of the kernel.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The EHS-RV assembly source.
    pub fn source(&self) -> String {
        (self.gen)()
    }

    /// The workload's program image, assembled on the first call in
    /// the process and cloned from that copy afterwards (assembly is
    /// deterministic, so every call returns an identical program).
    ///
    /// # Panics
    ///
    /// Panics if the generated source does not assemble — that would be a
    /// bug in this crate, and the test suite assembles every workload.
    pub fn program(&self) -> Program {
        /// One slot per [`SUITE`] entry, keyed by the workload's name.
        static PROGRAMS: [OnceLock<Program>; SUITE.len()] =
            [const { OnceLock::new() }; SUITE.len()];
        let slot = SUITE
            .iter()
            .position(|w| w.name == self.name)
            .map(|i| &PROGRAMS[i])
            .expect("every workload is a SUITE entry");
        slot.get_or_init(|| {
            asm::assemble(&self.source())
                .unwrap_or_else(|e| panic!("workload `{}` failed to assemble: {e}", self.name))
        })
        .clone()
    }

    /// The checksum the program must leave in `a0`, computed by the
    /// plain-Rust reference model.
    pub fn reference_checksum(&self) -> u32 {
        (self.reference)()
    }
}

macro_rules! workload {
    ($name:literal, $desc:literal, $gen:path, $reference:path) => {
        Workload {
            name: $name,
            description: $desc,
            gen: $gen,
            reference: $reference,
        }
    };
}

/// The full 20-benchmark suite, in the paper's figure order.
pub const SUITE: [Workload; 20] = [
    workload!(
        "adpcmd",
        "IMA ADPCM decoder over an LCG code stream",
        codec::gen_adpcmd,
        codec::ref_adpcmd
    ),
    workload!(
        "adpcme",
        "IMA ADPCM encoder over synthetic PCM",
        codec::gen_adpcme,
        codec::ref_adpcme
    ),
    workload!(
        "basicm",
        "basic math: Newton isqrt, polynomials, gcd grid",
        math::gen_basicm,
        math::ref_basicm
    ),
    workload!(
        "fft",
        "fixed-point radix-2 FFT, 512 points",
        transform::gen_fft,
        transform::ref_fft
    ),
    workload!(
        "g721d",
        "G.721-style adaptive-predictor decoder",
        codec::gen_g721d,
        codec::ref_g721d
    ),
    workload!(
        "g721e",
        "G.721-style adaptive-predictor encoder",
        codec::gen_g721e,
        codec::ref_g721e
    ),
    workload!(
        "gsmd",
        "GSM-style LTP frame decoder",
        codec::gen_gsmd,
        codec::ref_gsmd
    ),
    workload!(
        "gsme",
        "GSM-style autocorrelation frame encoder",
        codec::gen_gsme,
        codec::ref_gsme
    ),
    workload!(
        "ifft",
        "fixed-point inverse FFT, 512 points",
        transform::gen_ifft,
        transform::ref_ifft
    ),
    workload!(
        "jpegd",
        "dequant + integer IDCT over 8x8 blocks",
        transform::gen_jpegd,
        transform::ref_jpegd
    ),
    workload!(
        "patricia",
        "Patricia-trie build and lookups (pointer chasing)",
        search::gen_patricia,
        search::ref_patricia
    ),
    workload!(
        "pegwitd",
        "pegwit-style table-driven GF decryption",
        crypto::gen_pegwitd,
        crypto::ref_pegwitd
    ),
    workload!(
        "pegwite",
        "pegwit-style table-driven GF encryption",
        crypto::gen_pegwite,
        crypto::ref_pegwite
    ),
    workload!(
        "qsort",
        "iterative quicksort of 2048 words",
        search::gen_qsort,
        search::ref_qsort
    ),
    workload!(
        "rijndaeld",
        "AES-style inverse-S-box block decryption",
        crypto::gen_rijndaeld,
        crypto::ref_rijndaeld
    ),
    workload!(
        "rijndaele",
        "AES-style S-box block encryption",
        crypto::gen_rijndaele,
        crypto::ref_rijndaele
    ),
    workload!(
        "strings",
        "multi-needle substring search over 16 kB",
        search::gen_strings,
        search::ref_strings
    ),
    workload!(
        "susanc",
        "SUSAN-style corner response, 64x64 image",
        image::gen_susanc,
        image::ref_susanc
    ),
    workload!(
        "susane",
        "SUSAN-style edge response, 64x64 image",
        image::gen_susane,
        image::ref_susane
    ),
    workload!(
        "unepic",
        "inverse Haar wavelet reconstruction, 64x64",
        transform::gen_unepic,
        transform::ref_unepic
    ),
];

/// Looks up a workload by its paper name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    SUITE.iter().find(|w| w.name == name)
}

/// All workload names in figure order.
pub fn names() -> Vec<&'static str> {
    SUITE.iter().map(|w| w.name).collect()
}

/// Test helper: runs `w` in the functional interpreter and asserts the
/// checksum in `a0` (and at the `result` label) matches the reference
/// model.
#[cfg(test)]
pub(crate) fn check_workload(w: &Workload) {
    use ehs_isa::{Interpreter, Reg};
    let program = w.program();
    let mut vm = Interpreter::new(&program);
    vm.run(80_000_000)
        .unwrap_or_else(|e| panic!("workload `{}` did not halt cleanly: {e}", w.name()));
    let expected = w.reference_checksum();
    let got = vm.reg(Reg::A0);
    assert_eq!(
        got,
        expected,
        "workload `{}`: checksum mismatch (got {got:#010x}, expected {expected:#010x})",
        w.name()
    );
    let result_addr = program.symbol("result").expect("result label");
    assert_eq!(
        vm.read_u32(result_addr),
        expected,
        "`result` slot disagrees with a0"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_unique_names() {
        let mut names = names();
        assert_eq!(names.len(), 20);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "duplicate workload names");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("fft").unwrap().name(), "fft");
        assert!(by_name("doom").is_none());
    }

    #[test]
    fn every_workload_assembles() {
        for w in &SUITE {
            let p = w.program();
            assert!(!p.is_empty(), "{} produced an empty program", w.name());
            assert!(
                p.symbol("result").is_some(),
                "{} lacks a `result` label",
                w.name()
            );
        }
    }

    #[test]
    fn memoised_program_equals_a_fresh_assembly() {
        for w in &SUITE {
            let fresh = asm::assemble(&w.source()).expect("assembles");
            assert_eq!(w.program(), fresh, "{}", w.name());
            assert_eq!(w.program(), fresh, "{} (second call)", w.name());
        }
    }

    #[test]
    fn debug_formatting_is_nonempty() {
        let s = format!("{:?}", SUITE[0]);
        assert!(s.contains("adpcmd"));
    }
}
