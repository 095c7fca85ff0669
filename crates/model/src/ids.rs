//! Typed identifiers for the entities of a system model.
//!
//! Every entity (clock, channel, variable, automaton, location, edge) is
//! referred to by a small newtype wrapping its index, so that the different
//! kinds of references cannot be mixed up (`C-NEWTYPE`).

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) usize);

        impl $name {
            /// Raw index of this identifier within its declaring collection.
            #[inline]
            #[must_use]
            pub fn index(self) -> usize {
                self.0
            }

            /// Creates an identifier from a raw index.
            ///
            /// Intended for deserialization and test helpers; passing an index
            /// that does not refer to an existing entity results in panics or
            /// `ModelError::InvalidReference` later on.
            #[inline]
            #[must_use]
            pub fn from_index(index: usize) -> Self {
                Self(index)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a clock declared on a [`crate::System`].
    ///
    /// Clock `ClockId(i)` corresponds to DBM index `i + 1` (index 0 is the
    /// reference clock).
    ClockId
);
id_type!(
    /// Identifier of a synchronization channel declared on a [`crate::System`].
    ChannelId
);
id_type!(
    /// Identifier of a bounded integer variable (or array) declared on a
    /// [`crate::System`].
    VarId
);
id_type!(
    /// Identifier of an automaton within a [`crate::System`].
    AutomatonId
);
id_type!(
    /// Identifier of a location within an automaton.
    LocationId
);
id_type!(
    /// Identifier of an edge within an automaton.
    EdgeId
);

impl ClockId {
    /// DBM matrix index of this clock (reference clock is 0).
    #[inline]
    #[must_use]
    pub fn dbm_index(self) -> usize {
        self.0 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_dbm_index_is_shifted() {
        assert_eq!(ClockId::from_index(0).dbm_index(), 1);
        assert_eq!(ClockId::from_index(3).dbm_index(), 4);
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(VarId::from_index(1) < VarId::from_index(2));
        assert_eq!(LocationId::from_index(5).index(), 5);
        assert_eq!(format!("{}", ChannelId::from_index(2)), "ChannelId#2");
    }
}
