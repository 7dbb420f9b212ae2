//! Counter sets: the simulation's run counters, each set declared once.
//!
//! A counter set is a struct whose every field is a count (`u64`), a
//! per-item count vector (`Vec<u64>`, one slot per node or link) or a
//! nested counter set. [`counters!`](crate::counters!) declares one and
//! derives from its one field list the merge of two shards and an
//! ordered walk over its counters by name, which reports print and the
//! snapshot codec encodes. Adding a counter is one line.

/// One counter as a walk visits it: `Counter<u64, &[u64]>` by
/// [`Counters::walk`], `Counter<&mut u64, &mut Vec<u64>>` by
/// [`Counters::walk_mut`].
#[derive(Debug)]
pub enum Counter<C, V> {
    /// A count.
    Count(C),
    /// A per-item count vector.
    PerItem(V),
}

/// A count, a per-item count vector, or a set declared by
/// [`counters!`](crate::counters!).
pub trait Counters: Sized {
    /// Counters a walk visits: one per count and per per-item vector.
    const LEAVES: usize;

    /// Every count zero, every per-item vector empty.
    fn zeroed() -> Self;

    /// Add another shard's counters to these.
    ///
    /// # Panics
    /// Panics when two per-item vectors differ in length.
    fn merge(&mut self, other: &Self);

    /// Visit every counter in declaration order under its name: `name`
    /// itself, or `name.field` down a set's fields (`""` names the top
    /// set, so its fields read `field` and nested ones `set.field`).
    fn walk(&self, name: &str, f: &mut Visit<'_>);

    /// Visit every counter mutably, in walk order, until `f` fails.
    fn walk_mut<E>(&mut self, f: &mut VisitMut<'_, E>) -> Result<(), E>;

    /// Every count by name, in walk order; per-item vectors left out.
    fn counts(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(Self::LEAVES);
        self.walk("", &mut |name, counter| {
            if let Counter::Count(n) = counter {
                out.push((name.to_owned(), n));
            }
        });
        out
    }
}

/// The visitor [`Counters::walk`] calls, with each counter's name.
pub type Visit<'f> = dyn FnMut(&str, Counter<u64, &[u64]>) + 'f;

/// The visitor [`Counters::walk_mut`] calls.
pub type VisitMut<'f, E> = dyn FnMut(Counter<&mut u64, &mut Vec<u64>>) -> Result<(), E> + 'f;

impl Counters for u64 {
    const LEAVES: usize = 1;
    fn zeroed() -> Self {
        0
    }
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
    fn walk(&self, name: &str, f: &mut Visit<'_>) {
        f(name, Counter::Count(*self));
    }
    fn walk_mut<E>(&mut self, f: &mut VisitMut<'_, E>) -> Result<(), E> {
        f(Counter::Count(self))
    }
}

impl Counters for Vec<u64> {
    const LEAVES: usize = 1;
    fn zeroed() -> Self {
        Vec::new()
    }
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "per-item counter lengths");
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }
    fn walk(&self, name: &str, f: &mut Visit<'_>) {
        f(name, Counter::PerItem(self));
    }
    fn walk_mut<E>(&mut self, f: &mut VisitMut<'_, E>) -> Result<(), E> {
        f(Counter::PerItem(self))
    }
}

/// Declares a counter set: the struct as written, an inherent `merge`
/// (callers need not import [`Counters`]) and its [`Counters`] impl,
/// all from the one field list. A field whose type is not `u64`,
/// `Vec<u64>` or a counter set does not compile:
///
/// ```compile_fail,E0277
/// massf_topology::counters! {
///     pub struct Rates {
///         pub mean: f64,
///     }
/// }
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty),+
        }

        impl $name {
            /// Add another shard's counters to these: counts add,
            /// per-item vectors add element-wise, nested sets recurse.
            ///
            /// # Panics
            /// Panics when two per-item vectors differ in length.
            pub fn merge(&mut self, other: &Self) {
                $($crate::Counters::merge(&mut self.$field, &other.$field);)+
            }
        }

        impl $crate::Counters for $name {
            const LEAVES: usize = 0 $(+ <$ty as $crate::Counters>::LEAVES)+;
            fn zeroed() -> Self {
                Self { $($field: $crate::Counters::zeroed()),+ }
            }
            fn merge(&mut self, other: &Self) {
                $name::merge(self, other);
            }
            fn walk(&self, name: &str, f: &mut $crate::counters::Visit<'_>) {
                $(let field = match name {
                    "" => stringify!($field).into(),
                    _ => format!("{name}.{}", stringify!($field)),
                };
                $crate::Counters::walk(&self.$field, &field, f);)+
            }
            fn walk_mut<E>(&mut self, f: &mut $crate::counters::VisitMut<'_, E>) -> Result<(), E> {
                $($crate::Counters::walk_mut(&mut self.$field, f)?;)+
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Queue {
            pub drops: u64,
        }
    }

    crate::counters! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Link {
            pub per_port: Vec<u64>,
            pub queue: Queue,
        }
    }

    #[test]
    fn nested_sets_walk_under_qualified_names() {
        let mut link = Link {
            per_port: vec![1, 2],
            queue: Queue { drops: 3 },
        };
        link.merge(&link.clone());
        let mut walked = Vec::new();
        link.walk("", &mut |name, counter| {
            walked.push(format!("{name}={counter:?}"));
        });
        assert_eq!(walked, ["per_port=PerItem([2, 4])", "queue.drops=Count(6)"]);
        assert_eq!(link.counts(), [("queue.drops".to_owned(), 6)]);
        assert_eq!(Link::LEAVES, 2);
        assert_eq!(Link::zeroed().per_port, Vec::<u64>::new());
    }
}
