//! Wrapper callback plumbing: lambda-style vs prepare/finish (paper §III-H).
//!
//! The original MANA built C++ lambdas inside hot MPI wrappers; the
//! compiler turned each into several extra call frames, a measurable cost
//! at VASP's collective rates. MANA-2.0 decomposed them into dedicated
//! `prepare`/`finish` functions. Both styles are implemented here behind
//! one dispatch point, [`CommitState::with_commit`], which every MANA
//! wrapper enters through `Mana::wrapper` — so the `callback_style`
//! ablation switch prices exactly the Fig. 1 bracket:
//! [`CallbackStyle::Lambda`] heap-allocates two boxed closures per wrapper
//! call and invokes them through fat pointers (the dynamic dispatch +
//! allocation analog of the extra frames); [`CallbackStyle::Prepared`]
//! calls static functions directly.

use std::cell::Cell;

/// Which wrapper-callback style is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallbackStyle {
    /// Boxed-closure pre/post hooks per call (original MANA).
    Lambda,
    /// Direct static prepare/finish calls (MANA-2.0).
    Prepared,
}

/// Per-rank commit bookkeeping updated by every wrapper: how many wrapper
/// calls began/finished, and the checkpoint-disable depth (the
/// `DMTCP_PLUGIN_DISABLE_CKPT` nesting of the Fig. 1 skeleton).
#[derive(Debug, Default)]
pub struct CommitState {
    begun: Cell<u64>,
    finished: Cell<u64>,
    disable_depth: Cell<u32>,
}

impl CommitState {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrapper calls begun.
    pub fn begun(&self) -> u64 {
        self.begun.get()
    }

    /// Wrapper calls finished.
    pub fn finished(&self) -> u64 {
        self.finished.get()
    }

    /// Is checkpointing currently disabled (inside a lower-half critical
    /// section)?
    pub fn ckpt_disabled(&self) -> bool {
        self.disable_depth.get() > 0
    }

    fn prepare(&self) {
        self.begun.set(self.begun.get() + 1);
        self.disable_depth.set(self.disable_depth.get() + 1);
    }

    fn finish(&self) {
        debug_assert!(self.disable_depth.get() > 0, "unbalanced commit finish");
        self.disable_depth.set(self.disable_depth.get() - 1);
        self.finished.set(self.finished.get() + 1);
    }

    /// Run `body` on `ctx` inside the Fig. 1 bracket — `commit_begin` +
    /// `DMTCP_PLUGIN_DISABLE_CKPT` before, `DMTCP_PLUGIN_ENABLE_CKPT` +
    /// `commit_finish` after — dispatched by `style`. `state` projects the
    /// bracket's bookkeeping out of `ctx` (the body needs all of `ctx`
    /// mutably, bookkeeping included). The bracket closes whatever `body`
    /// returns, so an `Err` can never leave checkpointing disabled. This is
    /// the single dispatch point every MANA wrapper goes through.
    pub fn with_commit<C, R>(
        ctx: &mut C,
        state: fn(&C) -> &CommitState,
        style: CallbackStyle,
        body: impl FnOnce(&mut C) -> R,
    ) -> R {
        match style {
            CallbackStyle::Prepared => {
                state(ctx).prepare();
                let r = body(ctx);
                state(ctx).finish();
                r
            }
            CallbackStyle::Lambda => {
                // Deliberately costly: two boxed closures per call, invoked
                // through dyn pointers — the frame/allocation overhead the
                // paper removed.
                let pre: Box<dyn Fn(&C) + '_> = Box::new(move |c| state(c).prepare());
                let post: Box<dyn Fn(&C) + '_> = Box::new(move |c| state(c).finish());
                pre(ctx);
                let r = body(ctx);
                post(ctx);
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bracket<R>(
        cs: &mut CommitState,
        style: CallbackStyle,
        body: impl FnOnce(&mut CommitState) -> R,
    ) -> R {
        CommitState::with_commit(cs, |c| c, style, body)
    }

    #[test]
    fn both_styles_balance() {
        for style in [CallbackStyle::Lambda, CallbackStyle::Prepared] {
            let mut cs = CommitState::new();
            let out = bracket(&mut cs, style, |cs| {
                assert!(cs.ckpt_disabled(), "ckpt must be disabled inside body");
                7
            });
            assert_eq!(out, 7);
            assert!(!cs.ckpt_disabled());
            assert_eq!(cs.begun(), 1);
            assert_eq!(cs.finished(), 1);
        }
    }

    #[test]
    fn a_failing_body_still_closes_the_bracket() {
        for style in [CallbackStyle::Lambda, CallbackStyle::Prepared] {
            let mut cs = CommitState::new();
            let out: Result<(), &str> = bracket(&mut cs, style, |_| Err("stale handle"));
            assert_eq!(out, Err("stale handle"));
            assert!(!cs.ckpt_disabled(), "{style:?} left checkpointing disabled");
            assert_eq!((cs.begun(), cs.finished()), (1, 1));
        }
    }

    #[test]
    fn nesting_tracks_depth() {
        let mut cs = CommitState::new();
        bracket(&mut cs, CallbackStyle::Prepared, |cs| {
            bracket(cs, CallbackStyle::Prepared, |cs| {
                assert!(cs.ckpt_disabled());
            });
            assert!(cs.ckpt_disabled());
        });
        assert!(!cs.ckpt_disabled());
        assert_eq!(cs.begun(), 2);
    }

    #[test]
    fn lambda_style_is_not_cheaper() {
        // Sanity: both styles do the same bookkeeping.
        let mut a = CommitState::new();
        let mut b = CommitState::new();
        for _ in 0..100 {
            bracket(&mut a, CallbackStyle::Lambda, |_| ());
            bracket(&mut b, CallbackStyle::Prepared, |_| ());
        }
        assert_eq!(a.begun(), b.begun());
        assert_eq!(a.finished(), b.finished());
    }
}
