//! Ancilla-reuse policies (Table I of the paper).

use std::fmt;

/// Which allocation/reclamation strategy the compiler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Reclaim qubits whenever possible: every frame uncomputes. Pays
    /// *recursive recomputation* — an ℓ-deep call tree re-executes its
    /// leaves up to 2^ℓ times (Section III, Baseline 1). Allocation is
    /// the locality-blind LIFO pool of prior work.
    Eager,
    /// Reclaim only at the top level of the call graph: children leave
    /// garbage that the entry's single uncompute sweeps. Pays *qubit
    /// reservation* — garbage blocks reuse until program end
    /// (Section III, Baseline 2). LIFO allocation.
    Lazy,
    /// Full SQUARE: locality-aware allocation + cost-effective
    /// reclamation (Section III-A).
    Square,
    /// Locality-aware allocation with Eager reclamation — isolates the
    /// allocation heuristic's contribution ("SQUARE (LAA only)" in
    /// Figs. 8a/9/10).
    SquareLaaOnly,
}

impl Policy {
    /// All policies, in the order the paper's figures present them.
    pub const ALL: [Policy; 4] = [
        Policy::Lazy,
        Policy::Eager,
        Policy::SquareLaaOnly,
        Policy::Square,
    ];

    /// The three-policy subset used by Fig. 8b/8c.
    pub const BASELINE_THREE: [Policy; 3] = [Policy::Lazy, Policy::Eager, Policy::Square];

    /// True if allocation uses the locality-aware heuristic.
    pub fn uses_laa(&self) -> bool {
        matches!(self, Policy::Square | Policy::SquareLaaOnly)
    }

    /// True if reclamation uses the CER cost model (otherwise the
    /// decision is fixed by the policy).
    pub fn uses_cer(&self) -> bool {
        matches!(self, Policy::Square)
    }

    /// Parses a CLI-style policy name, case-insensitively: `lazy`,
    /// `eager`, `square`, and `laa` / `square-laa` for
    /// [`Policy::SquareLaaOnly`].
    pub fn parse(name: &str) -> Option<Policy> {
        match name.to_ascii_lowercase().as_str() {
            "lazy" => Some(Policy::Lazy),
            "eager" => Some(Policy::Eager),
            "square" => Some(Policy::Square),
            "laa" | "square-laa" | "square_laa" => Some(Policy::SquareLaaOnly),
            _ => None,
        }
    }

    /// The CLI name accepted back by [`Policy::parse`].
    pub fn cli_name(&self) -> &'static str {
        match self {
            Policy::Eager => "eager",
            Policy::Lazy => "lazy",
            Policy::Square => "square",
            Policy::SquareLaaOnly => "laa",
        }
    }

    /// Report label, matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Eager => "EAGER",
            Policy::Lazy => "LAZY",
            Policy::Square => "SQUARE",
            Policy::SquareLaaOnly => "SQUARE(LAA only)",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A base [`Policy`] plus an optional qubit budget — the fifth policy
/// dimension. This is what CLI front ends parse: the spec grammar is a
/// comma-separated combination of at most one base-policy name and at
/// most one `budget:N` clause, in either order:
///
/// * `square` — the base policy, unbudgeted.
/// * `square,budget:64` — square under a 64-qubit hard width cap.
/// * `budget:64` — the base defaults to `square`.
/// * `lazy,budget:inf` — explicit "no cap" (identical to bare `lazy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BudgetPolicy {
    /// The underlying reclamation/allocation policy.
    pub base: Policy,
    /// Hard cap on simultaneously live qubits; `None` means ∞.
    pub budget: Option<usize>,
}

impl BudgetPolicy {
    /// Wraps a bare policy with no cap.
    pub fn unbudgeted(base: Policy) -> BudgetPolicy {
        BudgetPolicy { base, budget: None }
    }

    /// Parses a policy spec (see the type docs for the grammar).
    /// Case-insensitive; `budget:inf` and `budget:∞` mean no cap.
    pub fn parse(spec: &str) -> Option<BudgetPolicy> {
        let mut base: Option<Policy> = None;
        let mut budget: Option<Option<usize>> = None;
        for part in spec.split(',') {
            let part = part.trim().to_ascii_lowercase();
            if let Some(value) = part.strip_prefix("budget:") {
                if budget.is_some() {
                    return None;
                }
                budget = Some(match value {
                    "inf" | "∞" => None,
                    n => Some(n.parse::<usize>().ok()?),
                });
            } else {
                if base.is_some() {
                    return None;
                }
                base = Some(Policy::parse(&part)?);
            }
        }
        if base.is_none() && budget.is_none() {
            return None;
        }
        Some(BudgetPolicy {
            base: base.unwrap_or(Policy::Square),
            budget: budget.flatten(),
        })
    }

    /// The CLI spelling accepted back by [`BudgetPolicy::parse`].
    pub fn cli_name(&self) -> String {
        match self.budget {
            None => self.base.cli_name().to_string(),
            Some(n) => format!("{},budget:{n}", self.base.cli_name()),
        }
    }
}

impl fmt::Display for BudgetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.base.label())?;
        if let Some(n) = self.budget {
            write!(f, " ·budget:{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_match_table_one() {
        assert!(!Policy::Eager.uses_laa());
        assert!(!Policy::Lazy.uses_laa());
        assert!(Policy::Square.uses_laa());
        assert!(Policy::SquareLaaOnly.uses_laa());
        assert!(Policy::Square.uses_cer());
        assert!(!Policy::SquareLaaOnly.uses_cer());
    }

    #[test]
    fn parse_round_trips_cli_names() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.cli_name()), Some(p));
            assert_eq!(Policy::parse(&p.cli_name().to_uppercase()), Some(p));
        }
        assert_eq!(Policy::parse("nonsense"), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Policy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn budget_policy_parses_the_spec_grammar() {
        assert_eq!(
            BudgetPolicy::parse("square"),
            Some(BudgetPolicy::unbudgeted(Policy::Square))
        );
        assert_eq!(
            BudgetPolicy::parse("square,budget:64"),
            Some(BudgetPolicy {
                base: Policy::Square,
                budget: Some(64),
            })
        );
        // Order-insensitive, case-insensitive, base defaults to square.
        assert_eq!(
            BudgetPolicy::parse("BUDGET:7 , lazy"),
            Some(BudgetPolicy {
                base: Policy::Lazy,
                budget: Some(7),
            })
        );
        assert_eq!(
            BudgetPolicy::parse("budget:64"),
            Some(BudgetPolicy {
                base: Policy::Square,
                budget: Some(64),
            })
        );
        // Explicit "no cap".
        assert_eq!(
            BudgetPolicy::parse("eager,budget:inf"),
            Some(BudgetPolicy::unbudgeted(Policy::Eager))
        );
        assert_eq!(
            BudgetPolicy::parse("budget:∞"),
            Some(BudgetPolicy::unbudgeted(Policy::Square))
        );
        // Rejections: empty, duplicates, junk.
        assert_eq!(BudgetPolicy::parse(""), None);
        assert_eq!(BudgetPolicy::parse("square,lazy"), None);
        assert_eq!(BudgetPolicy::parse("budget:3,budget:4"), None);
        assert_eq!(BudgetPolicy::parse("budget:abc"), None);
        assert_eq!(BudgetPolicy::parse("nonsense,budget:3"), None);
    }

    #[test]
    fn budget_policy_cli_name_round_trips() {
        let specs = [
            BudgetPolicy::unbudgeted(Policy::Lazy),
            BudgetPolicy {
                base: Policy::Square,
                budget: Some(55),
            },
        ];
        for s in specs {
            assert_eq!(BudgetPolicy::parse(&s.cli_name()), Some(s));
        }
    }
}
