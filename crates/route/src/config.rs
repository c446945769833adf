//! Router configuration: the one options struct every entry point
//! carries (compiler config, machine config, sweep grids, the compile
//! service, `squarec`, and fuzzing). It names the routing strategy;
//! the lookahead window depth is a constant of the executor.

use crate::router::RouterKind;

/// Options for the swap-chain routing engine.
///
/// Converts from a bare [`RouterKind`], so call sites that only pick a
/// strategy stay terse: `config.with_router(RouterKind::Lookahead)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Routing strategy.
    pub kind: RouterKind,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterKind::Greedy.into()
    }
}

impl From<RouterKind> for RouterConfig {
    fn from(kind: RouterKind) -> Self {
        RouterConfig { kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        assert_eq!(RouterConfig::default().kind, RouterKind::Greedy);
        let c: RouterConfig = RouterKind::Lookahead.into();
        assert_eq!(c.kind, RouterKind::Lookahead);
    }
}
