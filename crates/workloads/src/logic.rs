//! Reversible logic benchmarks: RD53, 6SYM, 2OF5 (Table II).
//!
//! All three are symmetric functions of their inputs, so they share a
//! counter-network synthesis: controlled increments accumulate the
//! input weight into a small ancilla counter, equality tests write the
//! outputs, and the counter is mechanically uncomputed. This is a
//! functional re-synthesis substitution — the I/O behaviour matches the classic RevLib functions while the
//! ancilla discipline is the paper's compute–store–uncompute form.
//!
//! * **RD53**: 5 inputs, 3 outputs — the binary weight of the input.
//! * **6SYM**: 6 inputs, 1 output — 1 iff the weight is in {2,3,4}.
//! * **2OF5**: 5 inputs, 1 output — 1 iff exactly two inputs are 1.

use square_qir::{ModuleBuilder, ModuleId, Operand, ProgramBuilder, QirError};

/// Emits a controlled increment of the `cnt` register (binary ripple:
/// MSB-first multi-controlled flips). In-place; the compiler lowers
/// the MCX gates to Toffoli V-chains with managed ancilla.
fn ctrl_increment(m: &mut ModuleBuilder, ctl: Operand, cnt: &[Operand]) {
    for j in (1..cnt.len()).rev() {
        let mut controls = vec![ctl];
        controls.extend_from_slice(&cnt[..j]);
        m.mcx(&controls, cnt[j]);
    }
    m.cx(ctl, cnt[0]);
}

/// Emits `out ^= (cnt == value)` using an X-conjugated MCX. Only legal
/// inside a compute block (the mask transiently writes `cnt`).
fn equality_check(m: &mut ModuleBuilder, cnt: &[Operand], value: u64, out: Operand) {
    let mask_bits: Vec<usize> = (0..cnt.len()).filter(|i| value >> i & 1 == 0).collect();
    for &i in &mask_bits {
        m.x(cnt[i]);
    }
    m.mcx(cnt, out);
    for &i in &mask_bits {
        m.x(cnt[i]);
    }
}

/// Weight-counter module: params `[x(inputs), out(counter_bits)]`;
/// counts the ones of `x` into an internal counter ancilla and stores
/// the weight to `out`.
pub fn weight_counter(
    b: &mut ProgramBuilder,
    inputs: usize,
    counter_bits: usize,
) -> Result<ModuleId, QirError> {
    b.module(
        format!("count{inputs}_{counter_bits}"),
        inputs + counter_bits,
        counter_bits,
        |m| {
            let x: Vec<Operand> = (0..inputs).map(|i| m.param(i)).collect();
            let out: Vec<Operand> = (0..counter_bits).map(|i| m.param(inputs + i)).collect();
            let cnt: Vec<Operand> = (0..counter_bits).map(|i| m.ancilla(i)).collect();
            for xi in &x {
                ctrl_increment(m, *xi, &cnt);
            }
            m.store();
            for i in 0..counter_bits {
                m.cx(cnt[i], out[i]);
            }
        },
    )
}

/// Weight-class module: params `[x(inputs), out]`; sets `out` iff the
/// input weight is one of `values`. Equality flags are computed into
/// per-value ancilla during compute, OR-accumulated (XOR of disjoint
/// indicators) into `out` by the store, then uncomputed.
pub fn weight_in_set(
    b: &mut ProgramBuilder,
    name: &str,
    inputs: usize,
    counter_bits: usize,
    values: &[u64],
) -> Result<ModuleId, QirError> {
    let values = values.to_vec();
    b.module(
        name.to_string(),
        inputs + 1,
        counter_bits + values.len(),
        |m| {
            let x: Vec<Operand> = (0..inputs).map(|i| m.param(i)).collect();
            let out = m.param(inputs);
            let cnt: Vec<Operand> = (0..counter_bits).map(|i| m.ancilla(i)).collect();
            let eq: Vec<Operand> = (0..values.len())
                .map(|i| m.ancilla(counter_bits + i))
                .collect();
            for xi in &x {
                ctrl_increment(m, *xi, &cnt);
            }
            for (v, e) in values.iter().zip(&eq) {
                equality_check(m, &cnt, *v, *e);
            }
            m.store();
            for e in &eq {
                m.cx(*e, out);
            }
        },
    )
}

/// RD53 as an entry program: entry register = `[x(5), scratch(3),
/// out(3)]`; `out` receives the input weight.
pub fn rd53() -> Result<square_qir::Program, QirError> {
    let mut b = ProgramBuilder::new();
    let counter = weight_counter(&mut b, 5, 3)?;
    let main = b.module("rd53", 0, 11, |m| {
        let q: Vec<Operand> = (0..8).map(|i| m.ancilla(i)).collect();
        let out: Vec<Operand> = (8..11).map(|i| m.ancilla(i)).collect();
        m.call(counter, &q);
        m.store();
        for i in 0..3 {
            m.cx(q[5 + i], out[i]);
        }
    })?;
    b.finish(main)
}

/// 6SYM as an entry program: entry register = `[x(6), scratch, out]`;
/// `out` = 1 iff weight(x) ∈ {2, 3, 4}.
pub fn sym6() -> Result<square_qir::Program, QirError> {
    let mut b = ProgramBuilder::new();
    let f = weight_in_set(&mut b, "sym6_core", 6, 3, &[2, 3, 4])?;
    let main = b.module("6sym", 0, 8, |m| {
        let q: Vec<Operand> = (0..7).map(|i| m.ancilla(i)).collect();
        let out = m.ancilla(7);
        m.call(f, &q);
        m.store();
        m.cx(q[6], out);
    })?;
    b.finish(main)
}

/// 2OF5 as an entry program: entry register = `[x(5), scratch, out]`;
/// `out` = 1 iff exactly two inputs are 1.
pub fn two_of_five() -> Result<square_qir::Program, QirError> {
    let mut b = ProgramBuilder::new();
    let f = weight_in_set(&mut b, "2of5_core", 5, 3, &[2])?;
    let main = b.module("2of5", 0, 7, |m| {
        let q: Vec<Operand> = (0..6).map(|i| m.ancilla(i)).collect();
        let out = m.ancilla(6);
        m.call(f, &q);
        m.store();
        m.cx(q[5], out);
    })?;
    b.finish(main)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{from_bits, to_bits};
    use square_qir::sem::{run, AlwaysReclaim, TopLevelOnly};

    #[test]
    fn rd53_outputs_weight_for_all_inputs() {
        let p = rd53().unwrap();
        for x in 0..32u64 {
            let inputs = to_bits(x, 5);
            let weight = x.count_ones() as u64;
            for oracle in [true, false] {
                let out = if oracle {
                    run(&p, &inputs, &mut AlwaysReclaim).unwrap().outputs
                } else {
                    run(&p, &inputs, &mut TopLevelOnly).unwrap().outputs
                };
                assert_eq!(from_bits(&out[8..11]), weight, "x={x:05b}");
                assert_eq!(from_bits(&out[..5]), x, "inputs restored, x={x:05b}");
                assert_eq!(from_bits(&out[5..8]), 0, "scratch swept, x={x:05b}");
            }
        }
    }

    #[test]
    fn sym6_matches_definition() {
        let p = sym6().unwrap();
        for x in 0..64u64 {
            let inputs = to_bits(x, 6);
            let w = x.count_ones();
            let expect = (2..=4).contains(&w);
            let out = run(&p, &inputs, &mut AlwaysReclaim).unwrap().outputs;
            assert_eq!(out[7], expect, "x={x:06b} weight={w}");
        }
    }

    #[test]
    fn two_of_five_matches_definition() {
        let p = two_of_five().unwrap();
        for x in 0..32u64 {
            let inputs = to_bits(x, 5);
            let expect = x.count_ones() == 2;
            let out = run(&p, &inputs, &mut TopLevelOnly).unwrap().outputs;
            assert_eq!(out[6], expect, "x={x:05b}");
        }
    }

    #[test]
    fn lowered_versions_agree() {
        let p = two_of_five().unwrap();
        let lowered = square_qir::lower_mcx(&p);
        square_qir::validate::validate_program(&lowered).unwrap();
        for x in [0u64, 3, 5, 24, 31] {
            let inputs = to_bits(x, 5);
            let a = run(&p, &inputs, &mut AlwaysReclaim).unwrap().outputs;
            let b = run(&lowered, &inputs, &mut AlwaysReclaim).unwrap().outputs;
            assert_eq!(a[6], b[6], "x={x:05b}");
        }
    }
}
