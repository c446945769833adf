//! Router configuration: one builder-style options struct shared by
//! every entry point (compiler config, machine config, sweep grids,
//! the compile service, `squarec`, and fuzzing) instead of scattered
//! per-caller knobs.

use crate::router::RouterKind;

/// Options for the swap-chain routing engine.
///
/// Converts from a bare [`RouterKind`] (all other knobs at their
/// defaults), so call sites that only pick a strategy stay terse:
/// `config.with_router(RouterKind::Lookahead)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Routing strategy.
    pub kind: RouterKind,
    /// Upcoming-gate hint window depth the executor feeds a
    /// lookahead router (ignored by greedy).
    pub lookahead_window: usize,
}

/// Default depth of the lookahead hint window.
pub const DEFAULT_LOOKAHEAD_WINDOW: usize = 16;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            kind: RouterKind::Greedy,
            lookahead_window: DEFAULT_LOOKAHEAD_WINDOW,
        }
    }
}

impl From<RouterKind> for RouterConfig {
    fn from(kind: RouterKind) -> Self {
        RouterConfig {
            kind,
            ..RouterConfig::default()
        }
    }
}

impl RouterConfig {
    /// Config for the given strategy with default knobs.
    pub fn new(kind: RouterKind) -> Self {
        kind.into()
    }

    /// Sets the lookahead hint-window depth.
    pub fn with_lookahead_window(mut self, window: usize) -> Self {
        self.lookahead_window = window;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let d = RouterConfig::default();
        assert_eq!(d.kind, RouterKind::Greedy);
        assert_eq!(d.lookahead_window, DEFAULT_LOOKAHEAD_WINDOW);
        let c: RouterConfig = RouterKind::Lookahead.into();
        assert_eq!(c.kind, RouterKind::Lookahead);
        assert_eq!(c.lookahead_window, d.lookahead_window);
        let c = RouterConfig::new(RouterKind::Greedy).with_lookahead_window(4);
        assert_eq!(c.lookahead_window, 4);
    }
}
