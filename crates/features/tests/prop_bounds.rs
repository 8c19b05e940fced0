//! Property: every sealed subwindow stays inside the channel bounds that
//! make its `u16` counts exact (see `rhmd_features::window::RawWindow`): at
//! most `SUBWINDOW` committed instructions, and every other channel at most
//! twice its instructions, so no count passes 2,000.
//!
//! Checked on both trace paths, the batched cursor and the per-event
//! reference accumulator, over random programs, execution limits and
//! injection plans (injected payloads add memory traffic and split blocks,
//! the densest streams a subwindow sees).

use proptest::prelude::*;
use rhmd_features::pipeline::trace_subwindows_reference;
use rhmd_features::stream::collect_subwindows;
use rhmd_features::window::{RawWindow, SUBWINDOW};
use rhmd_trace::exec::ExecLimits;
use rhmd_trace::generate::{
    benign_profile, malware_profile, BenignClass, MalwareFamily, ProgramGenerator,
};
use rhmd_trace::inject::{apply, InjectionPlan, Placement};
use rhmd_trace::isa::Opcode;
use rhmd_trace::Program;
use rhmd_uarch::events::COUNTER_NAMES;
use rhmd_uarch::CoreConfig;

fn any_program() -> impl Strategy<Value = Program> {
    (0usize..14, any::<u64>()).prop_map(|(class, seed)| {
        if class < 6 {
            ProgramGenerator::new(malware_profile(MalwareFamily::ALL[class])).generate(seed)
        } else {
            ProgramGenerator::new(benign_profile(BenignClass::ALL[class - 6])).generate(seed)
        }
    })
}

/// An instruction budget, a syscall cap (sometimes tight enough to end the
/// trace mid-subwindow), and either limit counted on original
/// instructions only.
fn any_limits() -> impl Strategy<Value = ExecLimits> {
    (1u64..40_000, any::<bool>(), 1u64..300, any::<bool>()).prop_map(
        |(budget, capped, syscalls, original)| {
            let limits = if original {
                ExecLimits::original_instructions(budget)
            } else {
                ExecLimits::instructions(budget)
            };
            ExecLimits {
                max_syscalls: if capped {
                    syscalls
                } else {
                    limits.max_syscalls
                },
                ..limits
            }
        },
    )
}

/// No plan, or a payload of 1–8 non-control-flow opcodes at either
/// placement with any scratch stride.
fn any_plan() -> impl Strategy<Value = Option<InjectionPlan>> {
    let payload_ops: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|op| !op.is_control_flow())
        .collect();
    (
        any::<bool>(),
        prop::collection::vec(prop::sample::select(payload_ops), 1..8),
        any::<bool>(),
        0u32..1 << 20,
    )
        .prop_map(|(inject, payload, every_block, mem_delta)| {
            let placement = if every_block {
                Placement::EveryBlock
            } else {
                Placement::BeforeReturn
            };
            inject.then(|| {
                let mut plan = InjectionPlan::new(payload, placement);
                plan.mem_delta = mem_delta;
                plan
            })
        })
}

fn check_bounds(path: &str, windows: &[RawWindow]) -> Result<(), TestCaseError> {
    for (i, w) in windows.iter().enumerate() {
        let n = u32::from(w.instructions);
        prop_assert!(
            (1..=SUBWINDOW).contains(&n),
            "{path} subwindow {i}: {n} instructions"
        );
        let cap = 2 * n;
        let counters = w.counters.to_array();
        let channels = w
            .opcode_counts
            .iter()
            .map(|&c| ("opcode_counts", c))
            .chain(w.mem_delta_hist.iter().map(|&c| ("mem_delta_hist", c)))
            .chain(COUNTER_NAMES.iter().copied().zip(counters));
        for (channel, count) in channels {
            prop_assert!(
                u32::from(count) <= cap,
                "{path} subwindow {i}: {channel} = {count} over {n} instructions"
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn sealed_subwindows_stay_within_the_u16_bounds(
        program in any_program(),
        limits in any_limits(),
        plan in any_plan(),
    ) {
        let program = match &plan {
            Some(plan) => apply(&program, plan).0,
            None => program,
        };
        let (batched, _) = collect_subwindows(&program, limits, CoreConfig::default());
        check_bounds("batched", &batched)?;
        let reference = trace_subwindows_reference(&program, limits, CoreConfig::default());
        check_bounds("reference", &reference)?;
    }
}
