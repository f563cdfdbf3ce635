//! Pins the stdout of every `mosaic-sim` example in README.md, line by
//! line, naming the first line that moved. The README's examples are
//! read from the file itself, so an example added there without a pin
//! here, or a pin whose example is gone, fails too.

use std::process::Command;

/// The arguments of each README example, and its stdout.
const EXAMPLES: &[(&str, &str)] = &[
    ("--manager all HS CONS", ALL_HS_CONS),
    ("--manager gpu-mmu-2m GUPS", GPU_MMU_2M_GUPS),
    ("fragmentation=1.0:0.5 GUPS", FRAG_GUPS),
    ("--list", LIST),
    ("--audit 50000 HS", AUDIT_HS),
];

/// The arguments of each `mosaic-sim` command in README.md, comments
/// dropped.
fn readme_examples() -> Vec<String> {
    let prefix = "cargo run --release --bin mosaic-sim -- ";
    let readme = include_str!("../README.md");
    let args = readme.lines().filter_map(|line| line.strip_prefix(prefix));
    args.map(|a| a.split('#').next().unwrap_or(a).trim().to_string()).collect()
}

/// Compares line by line, naming the first line that moved.
fn check(args: &str, actual: &str, expected: &str) {
    let (mut a, mut e) = (actual.lines(), expected.lines());
    for n in 1.. {
        match (a.next(), e.next()) {
            (None, None) => return,
            (got, want) if got == want => {}
            (got, want) => panic!(
                "`mosaic-sim {args}` line {n} moved\n  want: {want:?}\n  got:  {got:?}\nnow prints:\n{actual}"
            ),
        }
    }
}

#[test]
fn every_readme_example_is_pinned() {
    let pinned: Vec<&str> = EXAMPLES.iter().map(|&(args, _)| args).collect();
    assert_eq!(readme_examples(), pinned, "README examples and pins differ");
}

#[test]
fn readme_examples_print_their_pinned_reports() {
    for &(args, expected) in EXAMPLES {
        let out = Command::new(env!("CARGO_BIN_EXE_mosaic-sim"))
            .args(args.split_whitespace())
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(0), "{args}: {}", String::from_utf8_lossy(&out.stderr));
        check(args, &String::from_utf8_lossy(&out.stdout), expected);
    }
}

const ALL_HS_CONS: &str = "\
workload HS-CONS | 30 SMs

per-application alone baselines (GPU-MMU, equal SM share):
  HS       ipc 0.575
  CONS     ipc 0.399

=== HS+CONS gpu-mmu (GPU-MMU) ===
  cycles       924896   weighted speedup 1.546
  HS       ipc 0.440  (244800 instructions over 556923 cycles)
  CONS     ipc 0.311  (288000 instructions over 924896 cycles)
  TLB: L1 94.2%  L2 10.9%  walks 18753  (mean walk 284 cy)
  caches: L1 4.2%  L2 49.1%  DRAM row hits 38.9%
  paging: 5312 far-faults, 20.8 MB over the I/O bus (mean queue 22848 cy, mean service 7079 cy)
  manager: 0 coalesces, 0 splinters, 0 migrations, 0 emergency allocs, bloat 6.0%

=== HS+CONS migrating (Migrating-Coalescer) ===
  cycles       745903   weighted speedup 2.213
  HS       ipc 0.715  (244800 instructions over 342153 cycles)
  CONS     ipc 0.386  (288000 instructions over 745903 cycles)
  TLB: L1 98.4%  L2 30.2%  walks 3967  (mean walk 270 cy)
  caches: L1 5.2%  L2 52.9%  DRAM row hits 59.8%
  paging: 3782 far-faults, 20.8 MB over the I/O bus (mean queue 27061 cy, mean service 7132 cy)
  manager: 10 coalesces, 10 splinters, 3590 migrations, 0 emergency allocs, bloat 103.1%

=== HS+CONS mosaic (Mosaic) ===
  cycles       773609   weighted speedup 1.954
  HS       ipc 0.586  (244800 instructions over 417705 cycles)
  CONS     ipc 0.372  (288000 instructions over 773609 cycles)
  TLB: L1 97.5%  L2 21.0%  walks 7293  (mean walk 195 cy)
  caches: L1 4.5%  L2 45.2%  DRAM row hits 34.3%
  paging: 5312 far-faults, 20.8 MB over the I/O bus (mean queue 23792 cy, mean service 7079 cy)
  manager: 10 coalesces, 10 splinters, 0 migrations, 0 emergency allocs, bloat 15.7%

=== HS+CONS ideal-tlb (Ideal TLB) ===
  cycles       766991   weighted speedup 1.991
  HS       ipc 0.603  (244800 instructions over 405872 cycles)
  CONS     ipc 0.375  (288000 instructions over 766991 cycles)
  TLB: L1 100.0%  L2 100.0%  walks 0  (mean walk 0 cy)
  caches: L1 4.9%  L2 43.6%  DRAM row hits 45.6%
  paging: 5312 far-faults, 20.8 MB over the I/O bus (mean queue 24269 cy, mean service 7079 cy)
  manager: 0 coalesces, 0 splinters, 0 migrations, 0 emergency allocs, bloat 6.0%
";

const GPU_MMU_2M_GUPS: &str = "\
workload GUPS | 30 SMs

per-application alone baselines (GPU-MMU, equal SM share):
  GUPS     ipc 0.036

=== GUPS gpu-mmu-2m (GPU-MMU-2MB) ===
  cycles      1180924   weighted speedup 3.416
  GUPS     ipc 0.122  (144000 instructions over 1180924 cycles)
  TLB: L1 99.2%  L2 99.8%  walks 17  (mean walk 375 cy)
  caches: L1 0.0%  L2 3.1%  DRAM row hits 2.2%
  paging: 17 far-faults, 34.0 MB over the I/O bus (mean queue 537330 cy, mean service 74144 cy)
  manager: 17 coalesces, 16 splinters, 0 migrations, 0 emergency allocs, bloat 51100.0%
";

const FRAG_GUPS: &str = "\
workload GUPS | 30 SMs

per-application alone baselines (GPU-MMU, equal SM share):
  GUPS     ipc 0.036

=== GUPS mosaic frag=1:0.5 (Mosaic) ===
  cycles      1682409   weighted speedup 2.398
  GUPS     ipc 0.086  (144000 instructions over 1682409 cycles)
  TLB: L1 95.2%  L2 8.5%  walks 43902  (mean walk 7056 cy)
  caches: L1 0.0%  L2 16.2%  DRAM row hits 2.2%
  paging: 8208 far-faults, 32.1 MB over the I/O bus (mean queue 192153 cy, mean service 7079 cy)
  manager: 16 coalesces, 16 splinters, 4352 migrations, 17 emergency allocs, bloat 1097.7%
";

const LIST: &str = "\
name   suite      WS MB                pattern  sensitive
3DS    CudaSdk       64 Stencil { touches: 3,          no
BFS2   Rodinia       96 RandomGather { fanout:        yes
BLK    CudaSdk       48              Streaming         no
CONS   CudaSdk      112              Streaming         no
FFT    Shoc          80 Strided { stride_pages        yes
FWT    CudaSdk       64 Strided { stride_pages        yes
GUPS   Shoc         256 RandomGather { fanout:        yes
HISTO  Parboil       72 RandomGather { fanout:        yes
HS     Rodinia       40 Stencil { touches: 3,          no
JPEG   CudaSdk       56              Streaming         no
LPS    CudaSdk       32 Stencil { touches: 3,          no
LUD    Rodinia       24 Strided { stride_pages         no
LUH    Lulesh       160 Stencil { touches: 4,          no
MM     CudaSdk       36              Streaming         no
MUM    Rodinia      144                  Chase        yes
NN     Rodinia       10              Streaming         no
NW     Rodinia       88 Strided { stride_pages        yes
QTC    Shoc         120 RandomGather { fanout:        yes
RAY    CudaSdk       52                  Chase        yes
RED    Shoc         128              Streaming         no
SAD    Parboil       76 Stencil { touches: 2,          no
SC     Rodinia      104 RandomGather { fanout:        yes
SCAN   Shoc         192              Streaming         no
SCP    CudaSdk       44              Streaming         no
SPMV   Parboil      168 RandomGather { fanout:        yes
SRAD   Rodinia       60 Stencil { touches: 3,          no
TRD    Shoc         362              Streaming         no
";

const AUDIT_HS: &str = "\
workload HS | 30 SMs

per-application alone baselines (GPU-MMU, equal SM share):
  HS       ipc 0.583

=== HS mosaic (Mosaic) ===
  cycles       278900   weighted speedup 1.505
  HS       ipc 0.878  (244800 instructions over 278900 cycles)
  TLB: L1 98.2%  L2 41.1%  walks 2358  (mean walk 1120 cy)
  caches: L1 3.4%  L2 40.9%  DRAM row hits 18.4%
  paging: 1600 far-faults, 6.2 MB over the I/O bus (mean queue 56757 cy, mean service 7079 cy)
  manager: 3 coalesces, 3 splinters, 0 migrations, 0 emergency allocs, bloat 28.0%
";
