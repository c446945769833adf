//! Reversible addition primitives (the Cuccaro-based substrate of the
//! paper's arithmetic benchmarks, footnote 3).
//!
//! Three families:
//!
//! * [`cuccaro_add`] — the CDKM ripple-carry adder: in-place
//!   `b += a (mod 2^n)` with a single borrowed ancilla that returns to
//!   |0⟩ by construction (its uncompute block is empty).
//! * [`ctrl_add_out`] — the Bennett-form out-of-place adder: a carry
//!   register is computed (ancilla), the controlled sum is stored to a
//!   fresh register, and the carries are mechanically uncomputed —
//!   the module whose ancilla SQUARE manages.
//! * [`ctrl_add_inplace_ext`] / [`cc_add_inplace_ext`] /
//!   [`const_add_inplace`] — in-place (controlled) additions via
//!   *operand loading*: a temp register `t = ctrl·a` is computed, an
//!   uncontrolled in-place add runs, and a custom uncompute unloads
//!   `t` (without undoing the addition).

use std::collections::HashMap;

use square_qir::{ModuleId, Operand, ProgramBuilder, QirError};

/// Memoizes generated arithmetic modules per (kind, width) so shared
/// subcircuits appear once in the program (as ScaffCC's function
/// cloning would after deduplication).
#[derive(Debug, Default)]
pub struct ModuleCache {
    map: HashMap<(&'static str, usize, u64), ModuleId>,
}

impl ModuleCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn get_or_insert(
        &mut self,
        key: (&'static str, usize, u64),
        build: impl FnOnce() -> Result<ModuleId, QirError>,
    ) -> Result<ModuleId, QirError> {
        if let Some(id) = self.map.get(&key) {
            return Ok(*id);
        }
        let id = build()?;
        self.map.insert(key, id);
        Ok(id)
    }
}

/// In-place CDKM (Cuccaro) adder: params `[a(n), b(n)]`,
/// `b ← a + b (mod 2^n)`, `a` preserved. One ancilla (the ripple
/// seed), restored to |0⟩ by the circuit itself — the module carries
/// an *empty* uncompute block, so reclaiming it costs zero gates.
pub fn cuccaro_add(
    b: &mut ProgramBuilder,
    cache: &mut ModuleCache,
    n: usize,
) -> Result<ModuleId, QirError> {
    assert!(n >= 1, "adder width must be at least 1");
    cache.get_or_insert(("cuccaro", n, 0), || {
        b.module(format!("add{n}"), 2 * n, 1, |m| {
            let a: Vec<Operand> = (0..n).map(|i| m.param(i)).collect();
            let s: Vec<Operand> = (0..n).map(|i| m.param(n + i)).collect();
            let c = m.ancilla(0);
            // MAJ(x, y, z): y ^= z; x ^= z; z ^= x·y
            let maj = |m: &mut square_qir::ModuleBuilder, x, y, z| {
                m.cx(z, y);
                m.cx(z, x);
                m.ccx(x, y, z);
            };
            // UMA(x, y, z): z ^= x·y; x ^= z; y ^= x
            let uma = |m: &mut square_qir::ModuleBuilder, x, y, z| {
                m.ccx(x, y, z);
                m.cx(z, x);
                m.cx(x, y);
            };
            maj(m, c, s[0], a[0]);
            for i in 1..n {
                maj(m, a[i - 1], s[i], a[i]);
            }
            for i in (1..n).rev() {
                uma(m, a[i - 1], s[i], a[i]);
            }
            uma(m, c, s[0], a[0]);
            // The ripple ancilla is already |0⟩: reclaiming is free.
            m.uncompute();
        })
    })
}

/// Controlled out-of-place adder: params `[ctl, a(n), b(n), s(n+1)]`,
/// `s ← ctl · (a + b)`. Carries are computed unconditionally (and
/// uncomputed); only the stored sum is controlled.
pub fn ctrl_add_out(
    b: &mut ProgramBuilder,
    cache: &mut ModuleCache,
    n: usize,
) -> Result<ModuleId, QirError> {
    assert!(n >= 1, "adder width must be at least 1");
    cache.get_or_insert(("ctrl_out", n, 0), || {
        b.module(format!("caddout{n}"), 3 * n + 2, n, |m| {
            let ctl = m.param(0);
            let a: Vec<Operand> = (0..n).map(|i| m.param(1 + i)).collect();
            let x: Vec<Operand> = (0..n).map(|i| m.param(1 + n + i)).collect();
            let s: Vec<Operand> = (0..=n).map(|i| m.param(1 + 2 * n + i)).collect();
            let c: Vec<Operand> = (0..n).map(|i| m.ancilla(i)).collect();
            m.ccx(a[0], x[0], c[0]);
            for i in 1..n {
                m.ccx(a[i], x[i], c[i]);
                m.ccx(a[i], c[i - 1], c[i]);
                m.ccx(x[i], c[i - 1], c[i]);
            }
            m.store();
            m.ccx(ctl, a[0], s[0]);
            m.ccx(ctl, x[0], s[0]);
            for i in 1..n {
                m.ccx(ctl, a[i], s[i]);
                m.ccx(ctl, x[i], s[i]);
                m.ccx(ctl, c[i - 1], s[i]);
            }
            m.ccx(ctl, c[n - 1], s[n]);
        })
    })
}

/// In-place constant adder: params `[b(n)]`, `b += k (mod 2^n)` for a
/// compile-time constant `k`. The constant is loaded into a temp
/// register with X gates, added in place, and unloaded.
pub fn const_add_inplace(
    b: &mut ProgramBuilder,
    cache: &mut ModuleCache,
    n: usize,
    k: u64,
) -> Result<ModuleId, QirError> {
    let k = k & mask(n);
    let adder = cuccaro_add(b, cache, n)?;
    cache.get_or_insert(("const_inplace", n, k), || {
        b.module(format!("kadd{n}_{k:x}"), n, n, |m| {
            let s: Vec<Operand> = (0..n).map(|i| m.param(i)).collect();
            let t: Vec<Operand> = (0..n).map(|i| m.ancilla(i)).collect();
            for (i, ti) in t.iter().enumerate() {
                if k >> i & 1 == 1 {
                    m.x(*ti);
                }
            }
            let mut args = t.clone();
            args.extend_from_slice(&s);
            m.call(adder, &args);
            m.uncompute();
            for (i, ti) in t.iter().enumerate() {
                if k >> i & 1 == 1 {
                    m.x(*ti);
                }
            }
        })
    })
}

/// In-place controlled adder with widening: params
/// `[ctl, a(na), b(nb)]` with `nb ≥ na`, `b += ctl · a (mod 2^nb)`.
/// The operand register is zero-extended inside the temp load, so
/// carries propagate through the full target width — the building
/// block for shifted multiply-accumulate.
pub fn ctrl_add_inplace_ext(
    b: &mut ProgramBuilder,
    cache: &mut ModuleCache,
    na: usize,
    nb: usize,
) -> Result<ModuleId, QirError> {
    assert!(na >= 1 && nb >= na, "need nb >= na >= 1");
    let adder = cuccaro_add(b, cache, nb)?;
    cache.get_or_insert(("ctrl_inplace_ext", na, nb as u64), || {
        b.module(format!("cadd{na}_{nb}"), na + nb + 1, nb, |m| {
            let ctl = m.param(0);
            let a: Vec<Operand> = (0..na).map(|i| m.param(1 + i)).collect();
            let s: Vec<Operand> = (0..nb).map(|i| m.param(1 + na + i)).collect();
            let t: Vec<Operand> = (0..nb).map(|i| m.ancilla(i)).collect();
            for i in 0..na {
                m.ccx(ctl, a[i], t[i]);
            }
            let mut args = t.clone();
            args.extend_from_slice(&s);
            m.call(adder, &args);
            m.uncompute();
            for i in 0..na {
                m.ccx(ctl, a[i], t[i]);
            }
        })
    })
}

/// Doubly-controlled widening adder: params `[c0, c1, a(na), b(nb)]`,
/// `b += c0·c1·a (mod 2^nb)`.
pub fn cc_add_inplace_ext(
    b: &mut ProgramBuilder,
    cache: &mut ModuleCache,
    na: usize,
    nb: usize,
) -> Result<ModuleId, QirError> {
    assert!(na >= 1 && nb >= na, "need nb >= na >= 1");
    let adder = cuccaro_add(b, cache, nb)?;
    cache.get_or_insert(("cc_inplace_ext", na, nb as u64), || {
        b.module(format!("ccadd{na}_{nb}"), na + nb + 2, nb, |m| {
            let c0 = m.param(0);
            let c1 = m.param(1);
            let a: Vec<Operand> = (0..na).map(|i| m.param(2 + i)).collect();
            let s: Vec<Operand> = (0..nb).map(|i| m.param(2 + na + i)).collect();
            let t: Vec<Operand> = (0..nb).map(|i| m.ancilla(i)).collect();
            for i in 0..na {
                m.mcx(&[c0, c1, a[i]], t[i]);
            }
            let mut args = t.clone();
            args.extend_from_slice(&s);
            m.call(adder, &args);
            m.uncompute();
            for i in 0..na {
                m.mcx(&[c0, c1, a[i]], t[i]);
            }
        })
    })
}

/// Low `n`-bit mask.
pub fn mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Packs the low `n` bits of `v` into booleans, LSB first.
pub fn to_bits(v: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| v >> i & 1 == 1).collect()
}

/// Unpacks LSB-first booleans into an integer.
pub fn from_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_qir::sem::{run, TopLevelOnly};
    use square_qir::Program;

    /// Reclaims every frame except the entry (whose uncompute would
    /// undo the in-place results these tests read back). Exercises
    /// the custom-uncompute and zero-checked-free paths everywhere
    /// below the top level.
    fn reclaim_inner(_m: square_qir::ModuleId, depth: usize) -> bool {
        depth > 0
    }

    /// Wraps an adder module in an entry: inputs in the low registers,
    /// the callee's extra registers as scratch, copying `copy_out`
    /// qubits of scratch into a final output register via the store.
    fn wrap(
        build: impl FnOnce(&mut ProgramBuilder, &mut ModuleCache) -> Result<ModuleId, QirError>,
        arg_qubits: usize,
    ) -> Program {
        let mut b = ProgramBuilder::new();
        let mut cache = ModuleCache::new();
        let callee = build(&mut b, &mut cache).unwrap();
        let main = b
            .module("main", 0, arg_qubits, |m| {
                let q: Vec<Operand> = (0..arg_qubits).map(|i| m.ancilla(i)).collect();
                m.call(callee, &q);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    fn run_case(p: &Program, inputs: &[bool]) -> Vec<bool> {
        // NeverReclaim keeps the in-place results observable at the
        // entry register (no top-level sweep).
        let r = run(p, inputs, &mut square_qir::sem::NeverReclaim).unwrap();
        r.outputs
    }

    #[test]
    fn cuccaro_adds_exhaustively() {
        for n in 1..=4usize {
            let p = wrap(|b, c| cuccaro_add(b, c, n), 2 * n);
            for a in 0..(1u64 << n) {
                for x in 0..(1u64 << n) {
                    let mut inputs = to_bits(a, n);
                    inputs.extend(to_bits(x, n));
                    let out = run_case(&p, &inputs);
                    let got_a = from_bits(&out[..n]);
                    let got_b = from_bits(&out[n..2 * n]);
                    assert_eq!(got_a, a, "a preserved, n={n} a={a} b={x}");
                    assert_eq!(got_b, (a + x) & mask(n), "sum, n={n} a={a} b={x}");
                }
            }
        }
    }

    #[test]
    fn cuccaro_ancilla_is_self_cleaning_under_eager() {
        // AlwaysReclaim triggers the empty uncompute + zero-checked
        // free: if the ripple ancilla were dirty this would error.
        let n = 4;
        let p = wrap(|b, c| cuccaro_add(b, c, n), 2 * n);
        for (a, x) in [(3u64, 9u64), (15, 15), (0, 7)] {
            let mut inputs = to_bits(a, n);
            inputs.extend(to_bits(x, n));
            let r = run(&p, &inputs, &mut reclaim_inner).unwrap();
            assert_eq!(from_bits(&r.outputs[n..2 * n]), (a + x) & mask(n));
        }
    }

    #[test]
    fn controlled_out_of_place_adder_exhaustively() {
        for n in 1..=3usize {
            let p = wrap(|b, c| ctrl_add_out(b, c, n), 3 * n + 2);
            for ctl in [0u64, 1] {
                for a in 0..(1u64 << n) {
                    for x in 0..(1u64 << n) {
                        let mut inputs = vec![ctl == 1];
                        inputs.extend(to_bits(a, n));
                        inputs.extend(to_bits(x, n));
                        let out = run_case(&p, &inputs);
                        assert_eq!(from_bits(&out[1..1 + n]), a);
                        assert_eq!(from_bits(&out[1 + n..1 + 2 * n]), x);
                        assert_eq!(
                            from_bits(&out[1 + 2 * n..2 + 3 * n]),
                            ctl * (a + x),
                            "full sum with carry, n={n} ctl={ctl} a={a} b={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_place_adder_survives_lazy_sweep() {
        // Under TopLevelOnly the entry uncompute sweeps the carry
        // garbage; the sum lands in the callee's *store*, which is
        // inside the entry's compute slice, so it is undone too — the
        // observable invariant is ancilla hygiene (no DirtyAncilla).
        // The control is set, so the store writes the sum.
        let n = 3;
        let p = wrap(|b, c| ctrl_add_out(b, c, n), 3 * n + 2);
        let mut inputs = vec![true];
        inputs.extend(to_bits(5, n));
        inputs.extend(to_bits(6, n));
        let r = run(&p, &inputs, &mut TopLevelOnly).unwrap();
        assert_eq!(r.final_live, 3 * n + 2, "only the entry register lives");
    }

    /// The `(na, nb)` widths the in-place adder specs run exhaustively:
    /// equal widths, and widening (`na < nb`) where the carry must
    /// ripple through the zero-extended high bits.
    const INPLACE_WIDTHS: [(usize, usize); 4] = [(1, 1), (3, 3), (1, 3), (2, 4)];

    #[test]
    fn controlled_inplace_adder_exhaustively() {
        for (na, nb) in INPLACE_WIDTHS {
            let p = wrap(|b, c| ctrl_add_inplace_ext(b, c, na, nb), na + nb + 1);
            for ctl in [false, true] {
                for a in 0..(1u64 << na) {
                    for x in 0..(1u64 << nb) {
                        let mut inputs = vec![ctl];
                        inputs.extend(to_bits(a, na));
                        inputs.extend(to_bits(x, nb));
                        // Reclaiming inner frames exercises the custom
                        // uncompute (unload) path with the dirty-ancilla
                        // check armed.
                        let r = run(&p, &inputs, &mut reclaim_inner).unwrap();
                        let got = from_bits(&r.outputs[1 + na..1 + na + nb]);
                        let want = if ctl { (a + x) & mask(nb) } else { x };
                        assert_eq!(got, want, "na={na} nb={nb} ctl={ctl} a={a} b={x}");
                        assert_eq!(from_bits(&r.outputs[1..1 + na]), a, "a preserved");
                    }
                }
            }
        }
    }

    #[test]
    fn doubly_controlled_inplace_adder_exhaustively() {
        for (na, nb) in INPLACE_WIDTHS {
            let p = wrap(|b, c| cc_add_inplace_ext(b, c, na, nb), na + nb + 2);
            for (c0, c1) in [(false, false), (false, true), (true, false), (true, true)] {
                for a in 0..(1u64 << na) {
                    for x in 0..(1u64 << nb) {
                        let mut inputs = vec![c0, c1];
                        inputs.extend(to_bits(a, na));
                        inputs.extend(to_bits(x, nb));
                        let r = run(&p, &inputs, &mut reclaim_inner).unwrap();
                        let got = from_bits(&r.outputs[2 + na..2 + na + nb]);
                        let want = if c0 && c1 { (a + x) & mask(nb) } else { x };
                        assert_eq!(got, want, "na={na} nb={nb} c0={c0} c1={c1} a={a} b={x}");
                        assert_eq!(from_bits(&r.outputs[2..2 + na]), a, "a preserved");
                    }
                }
            }
        }
    }

    #[test]
    fn constant_adders() {
        let n = 4;
        for k in [0u64, 1, 7, 15] {
            let p = wrap(|b, c| const_add_inplace(b, c, n, k), n);
            for x in [0u64, 3, 15] {
                let inputs = to_bits(x, n);
                let r = run(&p, &inputs, &mut reclaim_inner).unwrap();
                assert_eq!(from_bits(&r.outputs[..n]), (x + k) & mask(n), "k={k} x={x}");
            }
        }
    }

    #[test]
    fn bit_helpers_round_trip() {
        for v in [0u64, 1, 0b1011, 0xFFFF] {
            assert_eq!(from_bits(&to_bits(v, 16)), v & mask(16));
        }
        assert_eq!(mask(3), 0b111);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn cache_shares_modules() {
        let mut b = ProgramBuilder::new();
        let mut cache = ModuleCache::new();
        let a1 = cuccaro_add(&mut b, &mut cache, 4).unwrap();
        let a2 = cuccaro_add(&mut b, &mut cache, 4).unwrap();
        let a3 = cuccaro_add(&mut b, &mut cache, 8).unwrap();
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
    }
}
