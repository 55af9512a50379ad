//! The number-to-text kernel of the wire format (DESIGN.md §5, "number
//! text on the wire").
//!
//! Every `f64` and integer of a `ROW`, `EVENT` or `END` line is written
//! here, appended straight to the caller's `String`; `core::fmt` is not
//! involved. An `f64` becomes the **shortest** decimal digit string that
//! parses back to the same bits, the **closest** to the true value among
//! those (an exact tie goes to the larger one), laid out positionally: never an
//! exponent, the sign of zero kept, `NaN`/`inf`/`-inf` for the
//! non-finite values. That is byte for byte what libstd's `Display`
//! prints, which survives as the oracle of this module's tests.
//!
//! The digits come from Schubfach (R. Giulietti, "The Schubfach way to
//! render doubles", 2020): one multiplication by a 128-bit power of ten
//! per boundary, rounded to odd, decides the shortest interval member
//! without loops or big integers. The power table is computed at compile
//! time from exact integer arithmetic ([`pow10_table`]).

/// Smallest and largest `k` with a `POW10` entry: `k = -floor(log10 2^q)`
/// over the binary exponents `q` of every finite double.
const K_MIN: i32 = -292;
const K_MAX: i32 = 324;
const K_COUNT: usize = (K_MAX - K_MIN + 1) as usize;

/// `POW10[k - K_MIN]` is `(hi, lo)` of `g = ceil(10^k / 2^r)` with
/// `r = floor(log2 10^k) - 127`, so `2^127 <= g < 2^128` and
/// `(g - 1) 2^r < 10^k <= g 2^r`.
static POW10: [(u64, u64); K_COUNT] = pow10_table();

/// Limbs of the table builder's integers: `10^324 < 2^1077`, and
/// `2^1279 / 10^292` still has more than 128 bits.
const LIMBS: usize = 20;

/// Builds [`POW10`] exactly: `10^k` by repeated multiplication for
/// `k >= 0`, `floor(2^1279 / 10^n)` by repeated short division for
/// `k = -n < 0` (nested floors of one numerator stay exact).
const fn pow10_table() -> [(u64, u64); K_COUNT] {
    let mut table = [(0u64, 0u64); K_COUNT];

    let mut big = [0u64; LIMBS];
    big[0] = 1;
    let mut k = 0;
    while k <= K_MAX {
        let (hi, lo, inexact) = top128(&big);
        table[(k - K_MIN) as usize] = if inexact { plus_one(hi, lo) } else { (hi, lo) };
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let wide = big[i] as u128 * 10 + carry;
            big[i] = wide as u64;
            carry = wide >> 64;
            i += 1;
        }
        assert!(carry == 0);
        k += 1;
    }

    let mut big = [0u64; LIMBS];
    big[LIMBS - 1] = 1 << 63;
    let mut n = 1;
    while n <= -K_MIN {
        let mut rem = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let wide = (rem << 64) | big[i] as u128;
            big[i] = (wide / 10) as u64;
            rem = wide % 10;
        }
        // 2^x / 10^n is never an integer, so the ceiling is floor + 1.
        let (hi, lo, _) = top128(&big);
        table[(-n - K_MIN) as usize] = plus_one(hi, lo);
        n += 1;
    }
    table
}

/// The 128 most significant bits of the non-zero little-endian `big`,
/// and whether any bit below them is set.
const fn top128(big: &[u64; LIMBS]) -> (u64, u64, bool) {
    let mut top = LIMBS - 1;
    while big[top] == 0 {
        top -= 1;
    }
    let a = big[top];
    let b = if top >= 1 { big[top - 1] } else { 0 };
    let c = if top >= 2 { big[top - 2] } else { 0 };
    let shift = a.leading_zeros();
    let (hi, lo, rest) = if shift == 0 {
        (a, b, c)
    } else {
        ((a << shift) | (b >> (64 - shift)), (b << shift) | (c >> (64 - shift)), c << shift)
    };
    let mut below = rest != 0;
    let mut i = 0;
    while i + 2 < top {
        below |= big[i] != 0;
        i += 1;
    }
    (hi, lo, below)
}

const fn plus_one(hi: u64, lo: u64) -> (u64, u64) {
    assert!(hi != u64::MAX || lo != u64::MAX);
    if lo == u64::MAX {
        (hi + 1, 0)
    } else {
        (hi, lo + 1)
    }
}

// Integer forms of floor(e·log10 2), floor(log10(3/4 · 2^e)) and
// floor(e·log2 10); exact for every |e| the kernel passes (checked in
// the tests against the logarithms).
const fn floor_log10_pow2(e: i32) -> i32 {
    (e * 1_262_611) >> 22
}
const fn floor_log10_three_quarters_pow2(e: i32) -> i32 {
    (e * 1_262_611 - 524_031) >> 22
}
const fn floor_log2_pow10(e: i32) -> i32 {
    (e * 1_741_647) >> 19
}

/// `floor(g · cp / 2^128)` with the lowest bit set when anything was cut
/// off: rounding to odd keeps every later comparison exact.
#[inline]
fn round_to_odd((hi, lo): (u64, u64), cp: u64) -> u64 {
    let x = lo as u128 * cp as u128;
    let y = hi as u128 * cp as u128 + (x >> 64);
    (y >> 64) as u64 | (y as u64 > 1) as u64
}

const FRAC_BITS: u32 = 52;
const FRAC_MASK: u64 = (1 << FRAC_BITS) - 1;
const HIDDEN_BIT: u64 = 1 << FRAC_BITS;
/// Biased exponent of a double whose unit in the last place is 1.
const UNIT_ULP: u32 = 1023 + FRAC_BITS;

/// Schubfach: `(d, e)` with `d · 10^e` the shortest decimal inside the
/// rounding interval of the finite, non-zero double made of `frac` and
/// `biased`, the closest one when several are that short. `d` has at
/// most 17 digits and may end in zeros.
fn shortest(frac: u64, biased: u32) -> (u64, i32) {
    let (c, q) = if biased != 0 {
        (frac | HIDDEN_BIT, biased as i32 - UNIT_ULP as i32)
    } else {
        (frac, 1 - UNIT_ULP as i32)
    };
    // An even significand owns its interval's end points (round-to-even
    // parses them back to it); at a power of two the lower neighbour is
    // half as far away.
    let even = c & 1 == 0;
    let lower_is_closer = frac == 0 && biased > 1;
    let cbl = 4 * c - 2 + lower_is_closer as u64;
    let cb = 4 * c;
    let cbr = 4 * c + 2;

    let k = if lower_is_closer { floor_log10_three_quarters_pow2(q) } else { floor_log10_pow2(q) };
    let h = q + floor_log2_pow10(-k) + 1;
    debug_assert!((1..=4).contains(&h));
    let g = POW10[(-k - K_MIN) as usize];
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    let lower = vbl + !even as u64;
    let upper = vbr - !even as u64;

    // All values are in units of 10^k / 4. A multiple of 10^(k+1) inside
    // the interval is shorter than anything else in it.
    let s = vb / 4;
    if s >= 10 {
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return (sp + up_inside as u64, k + 1);
        }
    }
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    if down_inside != up_inside {
        return (s + up_inside as u64, k);
    }
    // Both or neither: the closer of s and s + 1. An exact tie (a value
    // like 1099514114116857.25, which needs 17 digits) goes up, as in
    // libstd, where the Schubfach paper would pick the even digit.
    let round_up = vb >= 4 * s + 2;
    (s + round_up as u64, k)
}

/// `"00" "01" … "99"`.
const PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// The eight digits of `v < 10^8`, zero-padded.
#[inline]
fn eight_digits(v: u32) -> [u8; 8] {
    let (high, low) = (v / 10_000, v % 10_000);
    let [a, b] = PAIRS[(high / 100) as usize];
    let [c, d] = PAIRS[(high % 100) as usize];
    let [e, f] = PAIRS[(low / 100) as usize];
    let [g, h] = PAIRS[(low % 100) as usize];
    [a, b, c, d, e, f, g, h]
}

/// Writes the decimal digits of `v`, two per step, so that the last one
/// lands in `buf[end - 1]`; returns the index of the first.
#[inline]
fn digits_before(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    while v >= 100_000_000 {
        buf[end - 8..end].copy_from_slice(&eight_digits((v % 100_000_000) as u32));
        v /= 100_000_000;
        end -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        buf[end - 2..end].copy_from_slice(&PAIRS[(v % 100) as usize]);
        v /= 100;
        end -= 2;
    }
    if v >= 10 {
        buf[end - 2..end].copy_from_slice(&PAIRS[v as usize]);
        end - 2
    } else {
        buf[end - 1] = b'0' + v as u8;
        end - 1
    }
}

/// Appends bytes this module produced: digits, `-` and `.`.
///
/// The one `unsafe` of the kernel: validating the up to 41 bytes of every
/// number again cost 4–8 ns of the 20–40 ns a float takes and half of an
/// integer's 10 ns (microbench, release build).
#[inline]
#[allow(unsafe_code)]
fn push_ascii(out: &mut String, bytes: &[u8]) {
    debug_assert!(bytes.is_ascii());
    // SAFETY: every caller passes a range of a local scratch array that
    // was initialised with an ASCII byte and has since only been written
    // with bytes of `PAIRS`, `b'0' + digit`, `b'-'` and `b'.'`, or moved
    // within itself. ASCII is valid UTF-8 at any slice boundary.
    out.push_str(unsafe { std::str::from_utf8_unchecked(bytes) });
}

fn push_zeros(out: &mut String, n: i32) {
    out.extend(std::iter::repeat_n('0', n as usize));
}

/// Appends `v` in decimal.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut buf = [b'0'; 20];
    let start = digits_before(&mut buf, 20, v);
    push_ascii(out, &buf[start..]);
}

/// Appends `v` in decimal, `-` first when negative.
pub(crate) fn push_i64(out: &mut String, v: i64) {
    let mut buf = [b'0'; 21];
    let mut start = digits_before(&mut buf, 21, v.unsigned_abs());
    if v < 0 {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..]);
}

/// Scratch of [`push_f64`], pre-filled with `'0'`: the digits end at
/// `DIGITS_END`, which leaves room for `-0.` and `ZEROS_BEFORE` zeros in
/// front of 17 digits and for `ZEROS_AFTER` zeros behind them.
const SCRATCH: usize = 64;
const DIGITS_END: usize = 40;
const ZEROS_BEFORE: i32 = (DIGITS_END - 17 - 3) as i32;
const ZEROS_AFTER: i32 = (SCRATCH - DIGITS_END) as i32;

/// Appends `x` exactly as `write!(out, "{x}")` would.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    let bits = x.to_bits();
    let negative = bits >> 63 != 0;
    let biased = ((bits >> FRAC_BITS) & 0x7ff) as u32;
    let frac = bits & FRAC_MASK;
    if biased == 0x7ff {
        // Like `Display`, a NaN has neither sign nor payload.
        out.push_str(match (frac != 0, negative) {
            (true, _) => "NaN",
            (false, false) => "inf",
            (false, true) => "-inf",
        });
        return;
    }
    if biased == 0 && frac == 0 {
        out.push_str(if negative { "-0" } else { "0" });
        return;
    }

    let mut buf = [b'0'; SCRATCH];
    // Integers below 2^53 are their own shortest digits: nothing else
    // in their rounding interval is an integer.
    let fraction_bits = UNIT_ULP.wrapping_sub(biased);
    let (mut start, exp) =
        if fraction_bits <= FRAC_BITS && (frac | HIDDEN_BIT) & ((1 << fraction_bits) - 1) == 0 {
            (digits_before(&mut buf, DIGITS_END, (frac | HIDDEN_BIT) >> fraction_bits), 0)
        } else {
            let (mut d, mut e) = shortest(frac, biased);
            if d % 10 == 0 {
                while d % 100_000_000 == 0 {
                    d /= 100_000_000;
                    e += 8;
                }
                for (pow, zeros) in [(10_000, 4), (100, 2), (10, 1)] {
                    if d % pow == 0 {
                        d /= pow;
                        e += zeros;
                    }
                }
            }
            (digits_before(&mut buf, DIGITS_END, d), e)
        };

    let mut end = DIGITS_END;
    // The decimal point sits `point` digits after `start`.
    let point = (end - start) as i32 + exp;
    if (0..=ZEROS_AFTER).contains(&exp) {
        end += exp as usize;
    } else if exp < 0 && point > 0 {
        let int_digits = point as usize;
        buf.copy_within(start..start + int_digits, start - 1);
        start -= 1;
        buf[start + int_digits] = b'.';
    } else if exp < 0 && -point <= ZEROS_BEFORE {
        start -= (-point) as usize + 2;
        buf[start + 1] = b'.';
    } else {
        // A zero run longer than the scratch holds: the far ends of the
        // range, 1e25 and beyond or below 1e-20.
        if negative {
            out.push('-');
        }
        let digits = &buf[start..end];
        if exp < 0 {
            out.push_str("0.");
            push_zeros(out, -point);
            push_ascii(out, digits);
        } else {
            push_ascii(out, digits);
            push_zeros(out, exp);
        }
        return;
    }
    if negative {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..end]);
}

#[cfg(test)]
mod tests {
    //! libstd's `Display` is the oracle: for every value the kernel's
    //! bytes must equal `format!("{x}")` of the toolchain in use.

    use super::*;
    use proptest::prelude::*;

    fn written(x: f64) -> String {
        let mut out = String::from("|");
        push_f64(&mut out, x);
        out.split_off(1)
    }

    /// `x`, its successor in bit order, and both negated.
    fn check(x: f64) -> Result<(), TestCaseError> {
        let next = f64::from_bits(x.to_bits().wrapping_add(1));
        for v in [x, -x, next, -next] {
            prop_assert_eq!(written(v), format!("{v}"), "bits {:#018x}", v.to_bits());
        }
        Ok(())
    }

    fn parsed(significand: u64, exp10: i32) -> f64 {
        format!("{significand}e{exp10}").parse().expect("decimal literal")
    }

    /// The families where shortest-digit generation goes wrong first:
    /// every power of two and ten with its neighbours, the subnormal
    /// bit patterns, integers around every power of two and ten up to
    /// 2^64, and the exact 17-digit ties.
    fn structured() -> Vec<f64> {
        let mut xs = Vec::new();
        for biased in 0..=2047u64 {
            xs.extend([-1i64, 0, 1].map(|d| f64::from_bits((biased << 52).wrapping_add(d as u64))));
        }
        for k in -324..=308 {
            let x = parsed(1, k);
            xs.extend([x, f64::from_bits(x.to_bits().saturating_sub(1))]);
        }
        for bit in 0..52 {
            xs.extend([1u64 << bit, (1 << bit) - 1, (1 << bit) | 1].map(f64::from_bits));
        }
        for bit in 0..64 {
            xs.extend([1u64 << bit, (1 << bit) - 1, (1 << bit) + 1].map(|i| i as f64));
        }
        for k in 0..=19 {
            xs.extend([10u64.pow(k) - 1, 10u64.pow(k), 10u64.pow(k) + 1].map(|i| i as f64));
        }
        // b / 2^j with b odd is a decimal ending in 5 after j places:
        // where 17 digits reach exactly to the place before it, both
        // neighbours are equally close.
        for halvings in 1..=8u32 {
            for b in (1u64 << 52..1 << 53).step_by((1 << 44) + 12_345).map(|b| b | 1) {
                xs.push(b as f64 / (1u64 << halvings) as f64);
            }
        }
        xs
    }

    #[test]
    fn pinned_values_equal_display() {
        let pinned: [(f64, &str); 10] = [
            (f64::NAN, "NaN"),
            (-f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (0.0, "0"),
            (-0.0, "-0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e21, "1000000000000000000000"),
            (9_007_199_254_740_993u64 as f64, "9007199254740992"),
            // …857.25 exactly: a tie between …857.2 and …857.3.
            (f64::from_bits(0x430f_4004_a194_67ca), "1099514114116857.3"),
        ];
        for (x, text) in pinned {
            assert_eq!(written(x), text);
            assert_eq!(format!("{x}"), text);
        }
        let five_e_minus_324 = format!("0.{}5", "0".repeat(323));
        assert_eq!(written(5e-324), five_e_minus_324);
        assert_eq!(written(f64::from_bits(1)), five_e_minus_324);
        for x in [
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            1e21,
            1e22,
            1e23,
            5e-324,
            f64::EPSILON,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
        ] {
            assert_eq!(written(x), format!("{x}"), "bits {:#018x}", x.to_bits());
        }
    }

    #[test]
    fn pinned_integers_equal_display() {
        for v in [0, 1, 9, 10, 99, 100, 9_999, 10_000, 99_999_999, 100_000_000, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [i64::MIN, i64::MIN + 1, -100_000_000, -10, -1, 0, 1, i64::MAX] {
            let mut out = String::new();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn structured_families_equal_display() {
        for x in structured() {
            check(x).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn writer_equals_display(
            bits in 0u64..=u64::MAX,
            near_pow2 in (0u64..2047, -3i64..=3),
            near_pow10 in (-324i32..=308, -3i64..=3),
            subnormal in 1u64..1 << 52,
            integer in (0u64..=1 << 63, 0u32..64),
            decimal in (1u32..=17, 0u64..100_000_000_000_000_000, -342i32..=308),
            tie in (0u64..1 << 53, 1u32..=25),
            signed in i64::MIN..=i64::MAX,
            unsigned in 0u64..=u64::MAX,
        ) {
            check(f64::from_bits(bits))?;
            check(f64::from_bits((near_pow2.0 << 52).wrapping_add(near_pow2.1 as u64)))?;
            check(f64::from_bits(parsed(1, near_pow10.0).to_bits().wrapping_add(near_pow10.1 as u64)))?;
            check(f64::from_bits(subnormal))?;
            check((integer.0 >> integer.1) as f64)?;
            let (digits, significand, exp10) = decimal;
            check(parsed(significand % 10u64.pow(digits), exp10))?;
            check((tie.0 | 1) as f64 / (1u64 << tie.1) as f64)?;

            let mut out = String::new();
            push_i64(&mut out, signed);
            prop_assert_eq!(&out, &signed.to_string());
            out.clear();
            push_u64(&mut out, unsigned >> (unsigned % 64));
            prop_assert_eq!(&out, &(unsigned >> (unsigned % 64)).to_string());
        }
    }

    /// The volume the debug-mode proptest cannot reach; `ci.sh` runs it
    /// in release mode (`cargo test --release … -- --ignored`).
    #[test]
    #[ignore = "20M+ values: run in release mode"]
    fn writer_equals_display_at_volume() {
        for x in structured() {
            check(x).unwrap();
        }
        // splitmix64
        let mut state = 0x0015_5e15_ca1e_d0c5u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut ours, mut std) = (String::new(), String::new());
        let mut same = |x: f64| {
            use std::fmt::Write as _;
            ours.clear();
            std.clear();
            push_f64(&mut ours, x);
            let _ = write!(std, "{x}");
            assert_eq!(ours, std, "bits {:#018x}", x.to_bits());
        };
        for _ in 0..20_000_000 {
            same(f64::from_bits(next()));
        }
        for _ in 0..1_000_000 {
            same(f64::from_bits(next() >> 12)); // subnormals
            same((next() >> (next() % 64)) as f64); // integers to 2^64
            let x =
                parsed(next() % 10u64.pow(1 + (next() % 17) as u32), (next() % 651) as i32 - 342);
            same(x);
            same(f64::from_bits(x.to_bits() + 1));
            same(((next() >> 11) | 1) as f64 / (1u64 << (1 + next() % 25)) as f64);
            // ties
        }
    }

    #[test]
    fn power_table_matches_exact_small_powers() {
        // 10^k < 2^128 up to k = 38: the entry is 10^k itself, normalised.
        for k in 0..=38u32 {
            let exact = 10u128.pow(k);
            let g = exact << exact.leading_zeros();
            assert_eq!(POW10[(k as i32 - K_MIN) as usize], ((g >> 64) as u64, g as u64), "k = {k}");
        }
        // ceil(2^131 / 10): the repeating 0xC…CD of every divide-by-ten.
        assert_eq!(POW10[(-1 - K_MIN) as usize], (0xCCCC_CCCC_CCCC_CCCC, 0xCCCC_CCCC_CCCC_CCCD));
        // Each entry is ten times the one before, renormalised; four
        // bits are dropped first so that the product fits.
        for pair in POW10.windows(2) {
            let [a, b] = [pair[0], pair[1]].map(|(hi, lo)| (hi as u128) << 64 | lo as u128);
            let tenfold = (a >> 4) * 10;
            let off = b.abs_diff(tenfold).min(b.abs_diff(tenfold.saturating_mul(2)));
            assert!(off <= 32, "{pair:x?}");
        }
    }

    #[test]
    fn integer_logarithms_are_exact_where_used() {
        let (log10_2, log2_10) = (2f64.log10(), 10f64.log2());
        for e in -1100..=1100 {
            assert_eq!(floor_log10_pow2(e), (e as f64 * log10_2).floor() as i32, "e = {e}");
            assert_eq!(
                floor_log10_three_quarters_pow2(e),
                (e as f64 * log10_2 + 0.75f64.log10()).floor() as i32,
                "e = {e}"
            );
        }
        for e in -330..=330 {
            assert_eq!(floor_log2_pow10(e), (e as f64 * log2_10).floor() as i32, "e = {e}");
        }
    }
}
