use mpisim::{EngineKind, WorldCfg};

/// The CI matrix picks the engine through `MANA2_ENGINE`; mpisim itself
/// never reads the environment, so the tests parse the variable.
pub fn env_cfg() -> WorldCfg {
    let engine = std::env::var("MANA2_ENGINE").map_or(EngineKind::Thread, |v| {
        EngineKind::parse(&v).unwrap_or_else(|| panic!("bad MANA2_ENGINE={v:?}"))
    });
    WorldCfg {
        engine,
        ..WorldCfg::default()
    }
}
