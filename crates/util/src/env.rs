//! The workspace's `BENCHTEMP_*` environment knobs, and the one function
//! that reads them.
//!
//! `clippy.toml` bans `std::env::var`/`var_os` everywhere else, so a knob
//! cannot be read without a [`Knob`] variant, and the test below keeps
//! [`Knob::ALL`] and the README registry table equal in both directions.
//! Each knob is read once per process by its consumer (changing a variable
//! mid-process must never change behavior).

macro_rules! knobs {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// One registered `BENCHTEMP_*` environment variable.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Knob {
            $($(#[$doc])* $variant,)*
        }

        impl Knob {
            /// Every knob, in declaration order.
            pub const ALL: &'static [Knob] = &[$(Knob::$variant),*];

            /// The environment variable's name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Knob::$variant => $name,)*
                }
            }
        }
    };
}

knobs! {
    /// Worker-pool size, read at pool construction.
    Threads => "BENCHTEMP_THREADS",
    /// Path of the JSON-Lines trace stream; unset means tracing is off.
    Trace => "BENCHTEMP_TRACE",
    /// `1` arms the runtime sanitizer.
    Sanitize => "BENCHTEMP_SANITIZE",
    /// Marks a child re-executed by [`crate::child`].
    Child => "BENCHTEMP_CHILD",
    /// Default page-cache budget of the paged store, in MiB.
    PageCacheMb => "BENCHTEMP_PAGE_CACHE_MB",
    /// Base directory for paged-store files.
    StoreDir => "BENCHTEMP_STORE_DIR",
}

/// The knob's value, or `None` when it is unset or not valid Unicode.
#[expect(
    clippy::disallowed_methods,
    reason = "the one registered env read; every other read goes through this function"
)]
pub fn var(knob: Knob) -> Option<String> {
    std::env::var(knob.name()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every `BENCHTEMP_*` word between the README registry markers.
    fn readme_registry() -> BTreeSet<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("read README.md");
        let (_, rest) = readme
            .split_once("<!-- benchtemp-env-registry:begin -->")
            .expect("begin marker");
        let (table, _) = rest
            .split_once("<!-- benchtemp-env-registry:end -->")
            .expect("end marker");
        table
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|word| word.starts_with("BENCHTEMP_"))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn readme_registry_names_exactly_the_knobs() {
        let knobs: BTreeSet<String> = Knob::ALL.iter().map(|k| k.name().to_string()).collect();
        let readme = readme_registry();
        let undocumented: Vec<_> = knobs.difference(&readme).collect();
        let unknown: Vec<_> = readme.difference(&knobs).collect();
        assert!(
            undocumented.is_empty(),
            "knobs with no README registry row: {undocumented:?}"
        );
        assert!(
            unknown.is_empty(),
            "README registry rows with no Knob: {unknown:?}"
        );
    }

    #[test]
    fn knob_names_are_unique_and_prefixed() {
        let names: BTreeSet<&str> = Knob::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), Knob::ALL.len(), "duplicate knob name");
        for name in names {
            assert!(name.starts_with("BENCHTEMP_"), "{name} lacks the prefix");
        }
    }
}
