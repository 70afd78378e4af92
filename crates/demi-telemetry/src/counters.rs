//! Counters, declared once and incremented once.
//!
//! The rule every crate follows: an event that belongs to an object (a
//! port, a shard, a control block, a tenant lane) is counted on that
//! object's `stats()`; an event with no owner in the reader's reach (a
//! buffer allocation, a demux lookup, a timer firing, a tenant denial) is
//! counted in its crate's *thread-local family*. Either way the counter
//! is one line of one [`counter_family!`](crate::counter_family)
//! declaration, which generates everything the counter needs from that
//! single field list:
//!
//! - the `Copy` struct with its docs, `ZERO`, a saturating `delta` and an
//!   additive `merge` — all a per-object stats struct needs (summing
//!   shards is a `merge` fold);
//! - for a thread-local family, additionally the const-initialised
//!   per-thread cell, the named `note_*` increment functions, and the
//!   named reader function.
//!
//! Totals are monotone: nothing resets one. A measurement window is a
//! before/after `delta`, or a [`Baseline`] captured at the window's start
//! (what `Metrics` holds per family). Each thread has its own cell, so a
//! thread-per-shard world reads its own totals and a cross-thread total
//! is a `merge` of per-thread readings.

/// One field of a counter struct: zero, saturating difference, sum.
/// Implemented for the integer widths counters use and for arrays of
/// them (per-bucket or per-slot counters).
pub trait CounterField: Copy {
    /// The field's starting value.
    const ZERO: Self;
    /// `self − earlier`, clamped at zero.
    fn field_delta(self, earlier: Self) -> Self;
    /// `self + other`.
    fn field_sum(self, other: Self) -> Self;
}

macro_rules! int_counter_field {
    ($($int:ty),+) => {$(
        impl CounterField for $int {
            const ZERO: Self = 0;
            fn field_delta(self, earlier: Self) -> Self {
                self.saturating_sub(earlier)
            }
            fn field_sum(self, other: Self) -> Self {
                self + other
            }
        }
    )+};
}
int_counter_field!(u64, usize);

impl<T: CounterField, const N: usize> CounterField for [T; N] {
    const ZERO: Self = [T::ZERO; N];
    fn field_delta(self, earlier: Self) -> Self {
        std::array::from_fn(|i| self[i].field_delta(earlier[i]))
    }
    fn field_sum(self, other: Self) -> Self {
        std::array::from_fn(|i| self[i].field_sum(other[i]))
    }
}

/// A thread-local counter family's snapshot type: readable on the
/// calling thread and subtractable. Implemented by [`counter_family!`](crate::counter_family).
pub trait CounterSnapshot: Copy {
    /// The calling thread's running totals.
    fn current() -> Self;
    /// Per-field movement since `earlier`, clamped at zero.
    fn delta(&self, earlier: &Self) -> Self;
}

/// Declare a counter struct from one field list.
///
/// The plain form is a per-object stats struct: it derives `Debug`,
/// `Clone`, `Copy`, `Default`, `PartialEq` and `Eq` and gains `ZERO`,
/// `delta` (saturating) and `merge` (additive):
///
/// ```
/// demi_telemetry::counter_family! {
///     /// What one shard counted.
///     pub struct ShardWork {
///         /// Frames seen.
///         pub frames: u64,
///         /// Frames per queue.
///         pub per_queue: [u64; 2],
///     }
/// }
/// let mut total = ShardWork::ZERO;
/// total.merge(&ShardWork { frames: 2, per_queue: [2, 0] });
/// total.merge(&ShardWork { frames: 3, per_queue: [1, 2] });
/// assert_eq!(total, ShardWork { frames: 5, per_queue: [3, 2] });
/// assert_eq!(ShardWork::ZERO.delta(&total), ShardWork::ZERO); // saturating
/// ```
///
/// Following the struct with a reader signature makes it a thread-local
/// family: the macro adds the per-thread cell, that reader, and one
/// `note_*` function (adds 1) per field that names one with `=>`. A
/// field without a note is bumped by hand-written code through the
/// generated `pub(crate) fn update`:
///
/// ```
/// demi_telemetry::counter_family! {
///     /// Cache effectiveness.
///     pub struct CacheSnapshot {
///         /// Lookups answered from the cache.
///         pub hits: u64 => note_hit,
///         /// Bytes those lookups returned.
///         pub hit_bytes: u64,
///     }
///     /// This thread's cache counters.
///     pub fn cache_snapshot();
/// }
/// let before = cache_snapshot();
/// note_hit();
/// CacheSnapshot::update(|s| s.hit_bytes += 64);
/// let moved = cache_snapshot().delta(&before);
/// assert_eq!((moved.hits, moved.hit_bytes), (1, 64));
/// ```
#[macro_export]
macro_rules! counter_family {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
        }

        impl $name {
            /// Every counter at its starting value.
            pub const ZERO: Self = Self {
                $($field: <$fty as $crate::counters::CounterField>::ZERO,)*
            };

            /// Per-field movement since `earlier`, clamped at zero.
            pub fn delta(&self, earlier: &Self) -> Self {
                Self {
                    $($field: $crate::counters::CounterField::field_delta(
                        self.$field,
                        earlier.$field,
                    ),)*
                }
            }

            /// Adds `other` field by field: counts taken on different
            /// shards or threads sum exactly.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field =
                    $crate::counters::CounterField::field_sum(self.$field, other.$field);)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty $(=> $note:ident)?),* $(,)?
        }
        $(#[$rmeta:meta])*
        $rvis:vis fn $reader:ident();
    ) => {
        $crate::counter_family! {
            $(#[$meta])*
            $vis struct $name {
                $($(#[$fmeta])* $fvis $field: $fty,)*
            }
        }

        impl $name {
            /// Read-modify-write the calling thread's totals (the body of
            /// every `note_*`).
            pub(crate) fn update(f: impl FnOnce(&mut Self)) {
                Self::with_cell(|cell| {
                    let mut totals = cell.get();
                    f(&mut totals);
                    cell.set(totals);
                });
            }

            fn with_cell<R>(f: impl FnOnce(&::std::cell::Cell<Self>) -> R) -> R {
                ::std::thread_local! {
                    static CELL: ::std::cell::Cell<$name> =
                        const { ::std::cell::Cell::new(<$name>::ZERO) };
                }
                CELL.with(f)
            }
        }

        impl $crate::counters::CounterSnapshot for $name {
            fn current() -> Self {
                Self::with_cell(::std::cell::Cell::get)
            }
            fn delta(&self, earlier: &Self) -> Self {
                <$name>::delta(self, earlier)
            }
        }

        $(#[$rmeta])*
        $rvis fn $reader() -> $name {
            <$name as $crate::counters::CounterSnapshot>::current()
        }

        $($(
            #[doc = concat!(
                "Adds one to this thread's [`", stringify!($name), "::", stringify!($field), "`]."
            )]
            pub fn $note() {
                <$name>::update(|totals| totals.$field += 1);
            }
        )?)*
    };
}

/// The start of a measurement window over one thread-local family:
/// captured on the measuring thread, then asked for the movement since.
/// `Metrics` holds one per family it folds and re-captures it on reset.
#[derive(Clone, Copy, Debug)]
pub struct Baseline<S: CounterSnapshot> {
    base: S,
}

impl<S: CounterSnapshot> Baseline<S> {
    /// Start the window at the calling thread's current totals —
    /// movement before this point is invisible to this baseline.
    pub fn capture() -> Self {
        Self { base: S::current() }
    }

    /// Movement on the calling thread since the capture.
    pub fn movement(&self) -> S {
        S::current().delta(&self.base)
    }
}

#[cfg(test)]
mod tests {
    // The macro's generated API is `pub`, for the crates that export their
    // families; inside this private test module it is unreachable.
    #![allow(unreachable_pub)]

    use super::*;

    crate::counter_family! {
        /// A family with every field shape the macro supports.
        pub struct Snap {
            /// Scalar with a generated note.
            pub ops: u64 => note_op,
            /// Second scalar with a generated note.
            pub errs: u64 => note_err,
            /// Array without one (bumped through `update`).
            pub buckets: [u64; 3],
        }
        /// This thread's totals.
        pub fn snap();
    }

    /// The whole contract in one place: each generated `note_*` bumps
    /// exactly its field, `delta` saturates, `merge` adds scalars and
    /// arrays, a `Baseline` reports movement since its capture, and a
    /// second thread sees its own zeroed cell.
    #[test]
    fn family_notes_delta_merge_baseline_and_thread_isolation() {
        let before = snap();
        let baseline = Baseline::<Snap>::capture();
        note_op();
        note_op();
        let ops_only = snap().delta(&before);
        assert_eq!(
            (ops_only.ops, ops_only.errs, ops_only.buckets),
            (2, 0, [0; 3])
        );
        note_err();
        Snap::update(|s| s.buckets[1] += 5);
        let moved = snap().delta(&before);
        let expected = Snap {
            ops: 2,
            errs: 1,
            buckets: [0, 5, 0],
        };
        assert_eq!(moved, expected);
        assert_eq!(baseline.movement(), expected);
        assert_eq!(Baseline::<Snap>::capture().movement(), Snap::ZERO);

        // An "earlier" reading above the current one clamps to zero.
        let high = Snap {
            ops: 100,
            errs: 0,
            buckets: [9, 0, 9],
        };
        assert_eq!(
            moved.delta(&high),
            Snap {
                ops: 0,
                errs: 1,
                buckets: [0, 5, 0],
            }
        );

        let mut sum = moved;
        sum.merge(&high);
        assert_eq!(
            sum,
            Snap {
                ops: 102,
                errs: 1,
                buckets: [9, 5, 9],
            }
        );

        let elsewhere = std::thread::spawn(|| {
            let fresh = snap();
            note_err();
            (fresh, snap())
        })
        .join()
        .expect("counter thread panicked");
        assert_eq!(elsewhere.0, Snap::ZERO, "a new thread starts from zero");
        assert_eq!(elsewhere.1.errs, 1);
        assert_eq!(snap().delta(&before), expected, "and moves only its own");
    }
}
