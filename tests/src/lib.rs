//! Shared helpers for the integration tests in `tests/tests/`, and the
//! executable specifications the production fast paths are pinned to
//! ([`spec_trainer`]).

pub mod spec_trainer;

use muxlink_netlist::sim::{exhaustive_equiv, random_patterns, Simulator};
use muxlink_netlist::{Netlist, NetlistError};

/// A mid-sized reconvergent test design, deterministic in `seed`.
pub fn test_design(gates: usize, seed: u64) -> Netlist {
    muxlink_benchgen::synth::SynthConfig::new(format!("it_{gates}_{seed}"), 16, 8, gates)
        .generate(seed)
}

/// Differential-simulation oracle for the netlist pass framework: checks
/// that `a` and `b` compute the same function at every primary output.
///
/// Designs with ≤ 16 primary inputs are checked exhaustively (the full
/// truth table via the bit-parallel simulator); larger designs are
/// checked on 256 seeded random input vectors. Inputs and outputs are
/// matched by *name*, so the oracle is insensitive to net-id reordering
/// (a rebuilt netlist rarely preserves ids) but strict about interface
/// renames — exactly the pass-framework contract.
///
/// # Errors
///
/// Interface mismatches (different input/output name sets) and
/// combinational loops surface as [`NetlistError`] — an oracle *error*
/// means the pass broke the netlist, not just its function.
pub fn po_equivalent(a: &Netlist, b: &Netlist, seed: u64) -> Result<bool, NetlistError> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(NetlistError::InterfaceMismatch(
            "input/output counts differ".into(),
        ));
    }
    if a.inputs().len() <= 16 {
        return exhaustive_equiv(a, b);
    }
    let sim_a = Simulator::new(a)?;
    let sim_b = Simulator::new(b)?;
    // b's input order expressed as positions into a's pattern vector.
    let b_input_pos: Vec<usize> = b
        .inputs()
        .iter()
        .map(|&nb| {
            a.inputs()
                .iter()
                .position(|&na| a.net(na).name() == b.net(nb).name())
                .ok_or_else(|| NetlistError::InterfaceMismatch("input names differ".into()))
        })
        .collect::<Result<_, _>>()?;
    // For each of a's outputs, the matching position in b's output vector.
    let b_output_pos: Vec<usize> = a
        .outputs()
        .iter()
        .map(|&na| {
            b.outputs()
                .iter()
                .position(|&nb| b.net(nb).name() == a.net(na).name())
                .ok_or_else(|| NetlistError::InterfaceMismatch("output names differ".into()))
        })
        .collect::<Result<_, _>>()?;
    for pattern in random_patterns(a.inputs().len(), 256, seed) {
        let pattern_b: Vec<bool> = b_input_pos.iter().map(|&i| pattern[i]).collect();
        let out_a = sim_a.run_bools(&pattern);
        let out_b = sim_b.run_bools(&pattern_b);
        for (ia, &pb) in b_output_pos.iter().enumerate() {
            if out_a[ia] != out_b[pb] {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Panicking wrapper around [`po_equivalent`] with a labelled message —
/// the assertion every pass-equivalence test uses.
///
/// # Panics
///
/// Panics when the oracle reports inequivalence or errors.
pub fn assert_po_equivalent(a: &Netlist, b: &Netlist, label: &str) {
    match po_equivalent(a, b, 0xE9_0F) {
        Ok(true) => {}
        Ok(false) => panic!("{label}: primary-output behaviour diverged"),
        Err(e) => panic!("{label}: oracle error: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_identical_designs() {
        let n = test_design(120, 1);
        assert!(po_equivalent(&n, &n.clone(), 1).unwrap());
    }

    #[test]
    fn oracle_rejects_functional_change() {
        // 16 inputs → exhaustive path. Swap one gate type.
        let n = test_design(120, 2);
        let mut bytes = muxlink_netlist::bench_format::write(&n).unwrap();
        let changed = if bytes.contains("AND(") {
            bytes = bytes.replacen("AND(", "NAND(", 1);
            true
        } else if bytes.contains("OR(") {
            bytes = bytes.replacen("OR(", "NOR(", 1);
            true
        } else {
            false
        };
        assert!(changed, "synthetic design should contain AND or OR gates");
        let m = muxlink_netlist::bench_format::parse("mut", &bytes).unwrap();
        assert!(!po_equivalent(&n, &m, 1).unwrap());
    }

    #[test]
    fn oracle_random_path_matches_names_not_positions() {
        // > 16 inputs forces the sampled path; reparse from text to get a
        // structurally re-ordered but equivalent netlist.
        let n = muxlink_benchgen::synth::SynthConfig::new("wide", 20, 8, 200).generate(3);
        let text = muxlink_netlist::bench_format::write(&n).unwrap();
        let m = muxlink_netlist::bench_format::parse("re", &text).unwrap();
        assert!(po_equivalent(&n, &m, 7).unwrap());
    }

    #[test]
    fn oracle_flags_interface_mismatch_as_error() {
        let a = test_design(60, 4);
        let b = muxlink_benchgen::synth::SynthConfig::new("other", 12, 8, 60).generate(4);
        assert!(po_equivalent(&a, &b, 1).is_err());
    }
}
