//! Modular exponentiation (the MODEXP benchmark — Shor's algorithm's
//! arithmetic core, Fig. 1 of the paper).
//!
//! Computes `g^e mod 2^n` for a classical base `g` and quantum
//! exponent register `e` (k bits), by the standard chain of controlled
//! constant multiplications: `r_{j+1} = e_j ? r_j · g^{2^j} : r_j`.
//! Each intermediate `r_j` is an ancilla register of the modexp
//! module — the growing-and-reclaimable scratch that produces the
//! paper's Fig.-1 qubit-usage sawtooth.
//!
//! **Substitution note**: the modulus is `2^n` rather
//! than a general odd `N`, dropping the comparator/conditional-subtract
//! subcircuits of a general modular adder while preserving the call
//! depth (modexp → const-mul → controlled add → ripple adder), the
//! ancilla discipline, and the gate-count scaling that SQUARE's
//! heuristics act on.

use square_qir::{ModuleId, Operand, ProgramBuilder, QirError};

use crate::arith::{ctrl_add_inplace_ext, mask, ModuleCache};

/// Parameters of a modexp instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModexpSpec {
    /// Value register width (result is mod `2^n`).
    pub n: usize,
    /// Exponent register width.
    pub k: usize,
    /// Classical base.
    pub g: u64,
}

impl ModexpSpec {
    /// The reference result `g^e mod 2^n` computed classically.
    pub fn reference(&self, e: u64) -> u64 {
        let m = mask(self.n);
        let mut acc = 1u64 & m;
        let mut base = self.g & m;
        for j in 0..self.k {
            if e >> j & 1 == 1 {
                acc = acc.wrapping_mul(base) & m;
            }
            base = base.wrapping_mul(base) & m;
        }
        acc
    }
}

/// Builds the modexp module: params `[e(k), result(n)]`; the chain
/// registers `r_1 … r_k` are module ancilla. `result` must start |0⟩;
/// the store block copies `r_k` into it.
pub fn modexp(
    b: &mut ProgramBuilder,
    cache: &mut ModuleCache,
    spec: ModexpSpec,
) -> Result<ModuleId, QirError> {
    let ModexpSpec { n, k, g } = spec;
    assert!(n >= 1 && k >= 1, "modexp needs positive widths");
    let m_bits = mask(n);
    // Classical constants C_j = g^(2^j) mod 2^n.
    let mut consts = Vec::with_capacity(k);
    let mut c = g & m_bits;
    for _ in 0..k {
        consts.push(c);
        c = c.wrapping_mul(c) & m_bits;
    }
    // Adders for every (shift, step) we will need.
    let mut adders = vec![vec![None; n]; k];
    for (j, &cj) in consts.iter().enumerate().skip(1) {
        for (t, slot) in adders[j].iter_mut().enumerate() {
            if cj >> t & 1 == 1 {
                *slot = Some(ctrl_add_inplace_ext(b, cache, n - t, n - t)?);
            }
        }
    }
    b.module(format!("modexp{n}_{k}"), k + n, k * n, |m| {
        let e: Vec<Operand> = (0..k).map(|i| m.param(i)).collect();
        let result: Vec<Operand> = (0..n).map(|i| m.param(k + i)).collect();
        let r: Vec<Vec<Operand>> = (0..k)
            .map(|j| (0..n).map(|i| m.ancilla(j * n + i)).collect())
            .collect();
        // r_1 = e_0 ? g : 1  (bit loads controlled / anti-controlled).
        for (i, &r0i) in r[0].iter().enumerate() {
            if consts[0] >> i & 1 == 1 {
                m.cx(e[0], r0i);
            }
        }
        m.x(e[0]);
        m.cx(e[0], r[0][0]); // loads 1 when e_0 = 0
        m.x(e[0]);
        // r_{j+1} = e_j ? r_j · C_j : r_j
        for j in 1..k {
            for t in 0..n {
                if let Some(adder) = adders[j][t] {
                    // r_{j+1}[t..] += e_j · (r_j << t)
                    let mut args = vec![e[j]];
                    args.extend_from_slice(&r[j - 1][..n - t]);
                    args.extend_from_slice(&r[j][t..]);
                    m.call(adder, &args);
                }
            }
            // Anti-controlled copy: r_{j+1} ^= ¬e_j · r_j.
            m.x(e[j]);
            let (prev, cur) = (&r[j - 1], &r[j]);
            for (&src, &dst) in prev.iter().zip(cur) {
                m.ccx(e[j], src, dst);
            }
            m.x(e[j]);
        }
        m.store();
        for i in 0..n {
            m.cx(r[k - 1][i], result[i]);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{from_bits, to_bits};
    use square_qir::sem::run;
    use square_qir::Program;

    fn modexp_program(spec: ModexpSpec) -> Program {
        let mut b = ProgramBuilder::new();
        let mut cache = ModuleCache::new();
        let me = modexp(&mut b, &mut cache, spec).unwrap();
        let total = spec.k + spec.n;
        let main = b
            .module("main", 0, total, |m| {
                let q: Vec<Operand> = (0..total).map(|i| m.ancilla(i)).collect();
                m.call(me, &q);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    fn reclaim_inner(_m: square_qir::ModuleId, depth: usize) -> bool {
        depth > 0
    }

    #[test]
    fn reference_model_sanity() {
        let spec = ModexpSpec { n: 8, k: 4, g: 3 };
        assert_eq!(spec.reference(0), 1);
        assert_eq!(spec.reference(1), 3);
        assert_eq!(spec.reference(2), 9);
        assert_eq!(spec.reference(5), 3u64.pow(5) % 256);
    }

    #[test]
    fn exponentiates_exhaustively_small() {
        let spec = ModexpSpec { n: 4, k: 3, g: 3 };
        let p = modexp_program(spec);
        for e in 0..(1u64 << spec.k) {
            let inputs = to_bits(e, spec.k);
            let r = run(&p, &inputs, &mut reclaim_inner).unwrap();
            let got = from_bits(&r.outputs[spec.k..spec.k + spec.n]);
            assert_eq!(got, spec.reference(e), "e={e}");
            assert_eq!(
                from_bits(&r.outputs[..spec.k]),
                e,
                "exponent preserved, e={e}"
            );
        }
    }

    #[test]
    fn even_base_works_too() {
        let spec = ModexpSpec { n: 5, k: 3, g: 6 };
        let p = modexp_program(spec);
        for e in 0..(1u64 << spec.k) {
            let inputs = to_bits(e, spec.k);
            let r = run(&p, &inputs, &mut reclaim_inner).unwrap();
            let got = from_bits(&r.outputs[spec.k..spec.k + spec.n]);
            assert_eq!(got, spec.reference(e), "e={e}");
        }
    }

    #[test]
    fn lazy_sweep_keeps_hygiene() {
        // Top-level-only reclamation across the whole modexp chain:
        // the entry sweep must find every ancilla restorable.
        let spec = ModexpSpec { n: 3, k: 2, g: 3 };
        let p = modexp_program(spec);
        let r = run(&p, &to_bits(3, 2), &mut square_qir::sem::TopLevelOnly).unwrap();
        assert_eq!(r.final_live, spec.k + spec.n);
    }
}
