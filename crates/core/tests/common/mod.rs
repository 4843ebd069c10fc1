/// The `MANA2_*` environment: the CI matrix steers what a test does not pin.
pub fn env() -> mana_core::EnvConfig {
    mana_core::from_env().expect("MANA2_* environment")
}
