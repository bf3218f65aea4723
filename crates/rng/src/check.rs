//! The property runner every randomized test uses: `run(name, cases,
//! gen, prop)` draws `cases` inputs with `gen` and runs `prop` on each.
//!
//! * Case seeds derive from `name` alone, so every run draws the same
//!   cases and rerunning a failed test reproduces the failure.
//! * A property is plain code: any panic, e.g. a failed `assert!`, fails
//!   the case.
//! * A failing input shrinks greedily through [`Shrink`]: a `Vec` loses
//!   a half, then single elements; a tuple shrinks one component at a
//!   time. The runner then panics with `SEED=… CASE=…`, the shrunk
//!   input and its panic message.

use crate::SmallRng;
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// An input the runner can make smaller.
pub trait Shrink: Clone + Debug {
    /// Smaller candidates, the most aggressive first; atoms have none.
    fn shrink(&self) -> Box<dyn Iterator<Item = Self> + '_> {
        Box::new(std::iter::empty())
    }
}

macro_rules! atoms {
    ($($t:ty),*) => {$( impl Shrink for $t {} )*};
}

atoms!(bool, u8, u16, u32, u64, usize, i32, i64);

impl<T: Shrink> Shrink for Vec<T> {
    fn shrink(&self) -> Box<dyn Iterator<Item = Self> + '_> {
        let half = self.len() / 2;
        let halves = (half > 0).then(|| [self[half..].to_vec(), self[..half].to_vec()]);
        let singles = (0..self.len()).map(move |i| {
            let mut v = self.clone();
            v.remove(i);
            v
        });
        Box::new(halves.into_iter().flatten().chain(singles))
    }
}

macro_rules! tuples {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Shrink),+> Shrink for ($($t,)+) {
            fn shrink(&self) -> Box<dyn Iterator<Item = Self> + '_> {
                let it = std::iter::empty();
                $(let it = it.chain(self.$i.shrink().map(move |c| {
                    let mut t = self.clone();
                    t.$i = c;
                    t
                }));)+
                Box::new(it)
            }
        }
    )*};
}

tuples! { (A 0) (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3) }

/// Run `prop` on `cases` inputs drawn by `gen`; panic with the first
/// failing one, shrunk.
pub fn run<T: Shrink>(name: &str, cases: u32, gen: impl Fn(&mut SmallRng) -> T, prop: impl Fn(&T)) {
    if let Some((seed, case, input, message)) = find_failure(name, cases, gen, prop) {
        panic!(
            "property `{name}` failed: SEED={seed:#018x} CASE={case}\n\
             shrunk input: {input:?}\n{message}"
        );
    }
}

/// `(seed, case, shrunk input, its panic message)` of the first failing
/// case, if any.
fn find_failure<T: Shrink>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut SmallRng) -> T,
    prop: impl Fn(&T),
) -> Option<(u64, u32, T, String)> {
    let seed = crate::fnv1a(name.bytes());
    (0..cases).find_map(|case| {
        let mut input = gen(&mut SmallRng::seed_from_u64(
            seed.wrapping_add(u64::from(case)),
        ));
        let mut message = fails(&prop, &input)?;
        loop {
            let smaller = input
                .shrink()
                .find_map(|c| fails(&prop, &c).map(|m| (c, m)));
            let Some((c, m)) = smaller else {
                return Some((seed, case, input, message));
            };
            (input, message) = (c, m);
        }
    })
}

thread_local! {
    /// Set while this thread runs a case: its panics are expected.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// The panic message of `prop(input)`, or `None` if it passes.
fn fails<T>(prop: &impl Fn(&T), input: &T) -> Option<String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info)
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(input)));
    QUIET.with(|q| q.set(false));
    let payload = outcome.err()?;
    Some(match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .unwrap_or(&"a non-string panic")
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn digits(rng: &mut SmallRng) -> Vec<u32> {
        (0..rng.gen_range(0..40usize))
            .map(|_| rng.gen_range(0..50u32))
            .collect()
    }

    #[allow(clippy::ptr_arg)] // a property takes `&T`
    fn small_sum(v: &Vec<u32>) {
        assert!(v.iter().sum::<u32>() < 100, "sum too large");
    }

    #[test]
    fn a_failure_shrinks_to_a_one_minimal_input_and_names_its_case() {
        let (seed, case, input, message) = find_failure("planted", 200, digits, small_sum).unwrap();
        assert!(message.contains("sum too large"));
        assert!(fails(&small_sum, &input).is_some());
        for i in 0..input.len() {
            let mut fewer = input.clone();
            fewer.remove(i);
            assert!(
                fails(&small_sum, &fewer).is_none(),
                "{input:?} is not 1-minimal"
            );
        }
        let report = panic::catch_unwind(|| run("planted", 200, digits, small_sum)).unwrap_err();
        let report = report.downcast::<String>().unwrap();
        assert!(report.contains(&format!(
            "SEED={seed:#018x} CASE={case}\nshrunk input: {input:?}"
        )));
    }

    #[test]
    fn a_passing_property_runs_exactly_its_budget() {
        let (drawn, checked) = (Cell::new(0), Cell::new(0));
        let gen = |rng: &mut SmallRng| {
            drawn.set(drawn.get() + 1);
            digits(rng)
        };
        run("budget", 37, gen, |_| checked.set(checked.get() + 1));
        assert_eq!((drawn.get(), checked.get()), (37, 37));
    }

    #[test]
    fn runs_repeat_their_case_stream() {
        let stream = |name| {
            let seen = RefCell::new(Vec::new());
            run(name, 20, digits, |v| seen.borrow_mut().push(v.clone()));
            seen.into_inner()
        };
        assert_eq!(stream("stream"), stream("stream"));
        assert_ne!(stream("stream"), stream("other"));
    }
}
