//! Closed enums spelled by one name table.

/// A closed enum whose every variant has one stable name, spelled once in
/// [`Named::NAMES`]: its name, its parser and the accepted-values text of
/// its errors all read that table.
pub trait Named: Copy + PartialEq + 'static {
    /// Every variant and its name, in the order an error lists them.
    const NAMES: &'static [(Self, &'static str)];

    /// This variant's name.
    fn name(self) -> &'static str {
        let entry = Self::NAMES.iter().find(|e| e.0 == self);
        entry.expect("every variant is in NAMES").1
    }

    /// The variant called exactly `name`.
    fn named(name: &str) -> Option<Self> {
        Self::NAMES.iter().find(|e| e.1 == name).map(|e| e.0)
    }

    /// Every name, joined by `sep`: what an error says was accepted.
    fn names(sep: &str) -> String {
        let names: Vec<&str> = Self::NAMES.iter().map(|e| e.1).collect();
        names.join(sep)
    }
}
