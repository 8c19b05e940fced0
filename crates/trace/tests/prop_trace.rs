//! Property-based tests of the trace substrate's core invariants.

use proptest::prelude::*;
use rhmd_trace::exec::{
    CountingSink, ExecEvent, ExecLimits, ExecSummary, Observer, OriginalFingerprint,
};
use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                           ProgramGenerator};
use rhmd_trace::inject::{apply, InjectionPlan, Placement};
use rhmd_trace::isa::Opcode;
use rhmd_trace::Program;

fn any_profile_seeded() -> impl Strategy<Value = Program> {
    (0usize..14, 0u64..1000).prop_map(|(class, seed)| {
        if class < 6 {
            ProgramGenerator::new(malware_profile(MalwareFamily::ALL[class])).generate(seed)
        } else {
            ProgramGenerator::new(benign_profile(BenignClass::ALL[class - 6])).generate(seed)
        }
    })
}

/// Executes `program` to `limits` into `sink` and the original-stream
/// fingerprint together.
fn run_fingerprinted(
    program: &Program,
    limits: ExecLimits,
    sink: &mut CountingSink,
) -> (ExecSummary, OriginalFingerprint) {
    let mut fp = OriginalFingerprint::default();
    let summary = program.execute(limits, &mut |ev: &ExecEvent| {
        fp.observe(ev);
        sink.observe(ev);
    });
    (summary, fp)
}

fn injectable_opcode() -> impl Strategy<Value = Opcode> {
    prop::sample::select(
        Opcode::ALL
            .iter()
            .copied()
            .filter(|op| op.is_injectable())
            .collect::<Vec<_>>(),
    )
}

proptest! {
    // 24 cases by default; `PROPTEST_CASES` deepens the search (CI runs
    // 512), since this suite is the home of the injection-transparency
    // check.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|c| c.parse().ok()).unwrap_or(24)
    ))]

    /// Every generated program satisfies the structural invariants.
    #[test]
    fn generated_programs_validate(program in any_profile_seeded()) {
        prop_assert_eq!(program.validate(), Ok(()));
    }

    /// Execution is a pure function of (program, limits).
    #[test]
    fn execution_is_deterministic(program in any_profile_seeded(), budget in 1_000u64..20_000) {
        let limits = ExecLimits::instructions(budget);
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        let sa = program.execute(limits, &mut a);
        let sb = program.execute(limits, &mut b);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(a, b);
    }

    /// Injection never alters the original instruction stream: same
    /// fingerprint, same original count, under an original-work budget.
    #[test]
    fn injection_preserves_semantics(
        program in any_profile_seeded(),
        payload in prop::collection::vec(injectable_opcode(), 1..6),
        block_level in any::<bool>(),
        delta in prop::sample::select(vec![0u32, 1, 16, 64, 4096]),
    ) {
        let placement = if block_level { Placement::EveryBlock } else { Placement::BeforeReturn };
        let plan = InjectionPlan::new(payload, placement).with_mem_delta(delta);
        let (modified, overhead) = apply(&program, &plan);
        prop_assert_eq!(modified.validate(), Ok(()));
        prop_assert_eq!(
            overhead.added_bytes,
            overhead.sites * plan.payload_len() as u64 * 4
        );

        // Bound by *original* work: both runs execute the same original
        // instruction sequence regardless of payload size, and the bound
        // binds even for programs that never issue a system call.
        let limits = ExecLimits::original_instructions(30_000);
        let mut sink = CountingSink::default();
        let (original, fp) = run_fingerprinted(&program, limits, &mut sink);
        let mut sink2 = CountingSink::default();
        let (rewritten, fp2) = run_fingerprinted(&modified, limits, &mut sink2);
        prop_assert_eq!(fp, fp2);
        prop_assert_eq!(original.original_instructions, rewritten.original_instructions);
        prop_assert_eq!(
            rewritten.instructions - rewritten.original_instructions,
            sink2.injected
        );
    }

    /// Per-site random injection also preserves semantics and injects
    /// exactly count × sites instructions statically.
    #[test]
    fn random_injection_preserves_semantics(
        program in any_profile_seeded(),
        count in 1usize..4,
        seed in 0u64..100,
    ) {
        let pool: Vec<Opcode> = Opcode::ALL.iter().copied().filter(|o| o.is_injectable()).collect();
        let plan = InjectionPlan::random(pool, count, Placement::EveryBlock, seed);
        let (modified, overhead) = apply(&program, &plan);
        prop_assert_eq!(modified.validate(), Ok(()));
        prop_assert_eq!(overhead.sites, program.blocks.len() as u64);
        prop_assert_eq!(
            modified.injected_instruction_count(),
            overhead.sites * count as u64
        );

        let limits = ExecLimits::original_instructions(20_000);
        let (_, fp) = run_fingerprinted(&program, limits, &mut CountingSink::default());
        let (_, fp2) = run_fingerprinted(&modified, limits, &mut CountingSink::default());
        prop_assert_eq!(fp, fp2);
    }

    /// The executor commits exactly the budgeted number of instructions when
    /// the syscall budget doesn't bind first.
    #[test]
    fn instruction_budget_is_exact(program in any_profile_seeded(), budget in 100u64..5_000) {
        let limits = ExecLimits {
            max_instructions: budget,
            max_original_instructions: u64::MAX,
            max_syscalls: u64::MAX,
            max_call_depth: 128,
        };
        let mut sink = CountingSink::default();
        let summary = program.execute(limits, &mut sink);
        prop_assert_eq!(summary.instructions, budget);
        prop_assert_eq!(sink.total, budget);
    }

    /// Static text accounting matches the block arena.
    #[test]
    fn text_bytes_equal_instruction_count(program in any_profile_seeded()) {
        prop_assert_eq!(program.text_bytes(), program.static_instruction_count() * 4);
    }
}
