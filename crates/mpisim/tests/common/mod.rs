use mpisim::{EngineKind, WorldCfg};

/// The CI matrix picks the engine through `MANA2_ENGINE`; mpisim itself
/// never reads the environment, so the tests parse the variable.
pub fn env_cfg() -> WorldCfg {
    let cfg = WorldCfg::default();
    let engine = std::env::var("MANA2_ENGINE").map_or(cfg.engine, |v| {
        EngineKind::parse(&v).unwrap_or_else(|| panic!("bad MANA2_ENGINE={v:?}"))
    });
    WorldCfg { engine, ..cfg }
}
