//! Determinism of the fault layer: the same seed/plan against the same
//! workload must leave a byte-identical post-crash disk image, whatever
//! the cut point, torn-sector count, or stack. This is the property the
//! whole crash-point sweep rests on — if it ever breaks, crash points stop
//! being reproducible coordinates.

use proptest::prelude::*;

use modelcheck::{diff, small_mixed, stack, StackConfig};
use vlfs::disksim::{FaultPlan, WriteFault};

/// Run the fixed trace to the crash (or the end) and serialize the
/// surviving media.
fn image_after(cfg: StackConfig, plan: &FaultPlan) -> Vec<u8> {
    let mut fs = stack::build(cfg, plan.clone()).expect("format under plan");
    // A power cut aborts the trace mid-way.
    for op in &small_mixed().ops {
        if diff::apply(&mut fs, op).is_err() {
            break;
        }
    }
    let st = stack::teardown(cfg, fs);
    let mut img = Vec::new();
    st.disk.save_image(&mut img).expect("image serializes");
    img
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Torn power cuts on the raw-disk stacks: identical plan, identical
    /// image, twice over.
    #[test]
    fn torn_cut_images_are_reproducible(cut in 1u64..50, survivors in 0u32..8) {
        for cfg in [StackConfig::UfsRegular, StackConfig::LfsRegular] {
            let plan = FaultPlan::torn_power_cut(stack::format_writes(cfg) + cut, survivors);
            prop_assert_eq!(
                image_after(cfg, &plan),
                image_after(cfg, &plan),
                "{}: same plan, different image",
                cfg
            );
        }
    }

    /// Clean cuts at the VLD command boundary are just as reproducible.
    #[test]
    fn vld_cut_images_are_reproducible(cut in 0u64..50) {
        for cfg in [StackConfig::UfsVld, StackConfig::LfsVld] {
            let plan = FaultPlan::power_cut_after(stack::format_writes(cfg) + cut);
            prop_assert_eq!(image_after(cfg, &plan), image_after(cfg, &plan), "{}", cfg);
        }
    }

    /// Corruption faults derive their byte flips from the seed alone:
    /// same seed twice = same image; different seeds diverge (the flip
    /// really happened and really is seed-driven). Power is cut right
    /// after the corrupt write so the corrupted state is what survives —
    /// otherwise the workload's later writes can paper over it.
    #[test]
    fn corruption_is_seed_deterministic(op in 1u64..30, seed in any::<u64>()) {
        let cfg = StackConfig::UfsRegular;
        let target = stack::format_writes(cfg) + op;
        let cut = WriteFault::PowerCut { survivors: 0 };
        let plan = FaultPlan::corrupt_write(target, seed).with(target + 1, cut);
        let a = image_after(cfg, &plan);
        prop_assert_eq!(&a, &image_after(cfg, &plan));
        let other = FaultPlan::corrupt_write(target, seed ^ 0x1234_5678).with(target + 1, cut);
        prop_assert_ne!(&a, &image_after(cfg, &other));
    }
}
