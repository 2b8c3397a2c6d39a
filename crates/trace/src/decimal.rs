//! Decimal text for numbers, appended straight to a byte buffer.
//!
//! [`push_f64`] appends exactly the bytes `format!("{}", x)` produces for
//! every `f64`: the shortest digit string that parses back to `x`, the one
//! closest to `x` when several are that short (an exact halfway case rounds
//! up, as `core::fmt` does), laid out positionally with no exponent —
//! `0.000…5` for `5e-324`, `100…0` for `1e22`, `4` for `4.0`, and `0`, `-0`,
//! `inf`, `-inf`, `NaN` for the special values. Byte equality with
//! `Display` is the contract, not an accident: the exported traces are
//! pinned by digest, so the text of every field must not move, and
//! shortest round-trip digits make parsing an export back bit-exact.
//!
//! The digits come from Ryū (Ulf Adams, PLDI 2018). The value's rounding
//! interval is scaled to a power of ten by a 128-bit approximation of a
//! power of five, then digits are removed while the interval still holds a
//! shorter decimal. The power tables are computed at compile time from
//! exact multi-word powers of five.
//!
//! [`push_u64`] is the integer counterpart, for ids and millisecond stamps.

/// Bits of precision kept in the `5^-q` table entries.
const POW5_INV_BITCOUNT: i32 = 125;
/// Bits of precision kept in the `5^i` table entries.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_TABLE_SIZE: usize = 342;
const POW5_TABLE_SIZE: usize = 326;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// `floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1` for `q < 342`.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_split();
/// The top 125 bits of `5^i` for `i < 326`.
static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_split();

/// Two ASCII digits for each of `00..=99`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Append the decimal digits of `v`.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, v);
    out.extend_from_slice(&buf[start..]);
}

/// Append `x` exactly as `format!("{}", x)` writes it (see the module doc).
pub fn push_f64(out: &mut Vec<u8>, x: f64) {
    let bits = x.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    if ieee_exponent == 0x7ff {
        out.extend_from_slice(match (ieee_mantissa != 0, negative) {
            (true, _) => b"NaN",
            (false, true) => b"-inf",
            (false, false) => b"inf",
        });
        return;
    }
    if negative {
        out.push(b'-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    push_positional(out, mantissa, exponent);
}

/// Write `mantissa × 10^exponent` without an exponent: `0.00ddd`,
/// `dd.ddd` or `ddd00`.
fn push_positional(out: &mut Vec<u8>, mantissa: u64, exponent: i32) {
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, mantissa);
    let digits = &buf[start..];
    // Digits left of the decimal point.
    let point = digits.len() as i32 + exponent;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + exponent as usize, b'0');
    }
}

/// Write the digits of `v` right-aligned into `buf`; returns where they
/// start.
fn write_digits(buf: &mut [u8; 20], mut v: u64) -> usize {
    let mut pos = buf.len();
    // Eight digits at a time, as four independent 32-bit pairs.
    while v >= 100_000_000 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high, low) = (low / 10_000, low % 10_000);
        pos -= 8;
        buf[pos..pos + 2].copy_from_slice(&pair(high / 100));
        buf[pos + 2..pos + 4].copy_from_slice(&pair(high % 100));
        buf[pos + 4..pos + 6].copy_from_slice(&pair(low / 100));
        buf[pos + 6..pos + 8].copy_from_slice(&pair(low % 100));
    }
    let mut v = v as u32;
    while v >= 100 {
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&pair(v % 100));
        v /= 100;
    }
    if v >= 10 {
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&pair(v));
    } else {
        pos -= 1;
        buf[pos] = b'0' + v as u8;
    }
    pos
}

/// The two digits of `v < 100`.
fn pair(v: u32) -> [u8; 2] {
    let i = v as usize * 2;
    [DIGIT_PAIRS[i], DIGIT_PAIRS[i + 1]]
}

/// Ryū: the shortest `(mantissa, exponent)` with `mantissa × 10^exponent`
/// inside the rounding interval of the finite, non-zero double given by
/// its raw fields, closest to it, halfway cases rounded up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits below the mantissa hold the interval's bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps the bounds of an even mantissa's
    // interval back to it, so they count as inside.
    let accept_bounds = m2 & 1 == 0;

    // The interval is (4·m2 − 1 − mm_shift, 4·m2 + 2) × 2^e2; its lower half
    // is narrower at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the interval to a power of ten: vr, vp, vm are its value,
    // upper and lower bound as decimal integers times 10^e10. The lower
    // bound counts as inside only when it is exact, so track whether the
    // digits dropped from it are all zeros.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        // At most one of mv, mp, mm is a multiple of 5; an exact bound
        // needs q factors of five.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        // An exact bound needs q trailing zero bits: mm = 4·m2 − 1 − mm_shift
        // has one exactly when mm_shift is 1, mp = 4·m2 + 2 always has one.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still holds a shorter decimal, then
    // round the last kept digit on the first dropped one: an exact halfway
    // case (…50…0) rounds up, as `core::fmt` does, where the reference
    // algorithm rounds it to even.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: the lower bound is exact and inside, so it may end in
        // zeros that can be dropped too.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let outside = vr == vm && !vm_is_trailing_zeros;
        vr + u64::from(outside || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `(m × mul) >> j` for a 128-bit `mul`, keeping the 64 bits Ryū needs.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Bit length of `5^e` (1 for `e == 0`); exact for `0 <= e <= 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v % 5 == 0 {
        v /= 5;
        count += 1;
    }
    count >= p
}

// ---- compile-time power tables -------------------------------------------

/// Limbs of `5^341` (< 2^792), least significant first.
const POW_LIMBS: usize = 13;
/// Limbs of `2^1023`, which exceeds every numerator `2^(bitlen(5^q) + 124)`
/// of the inverse table (at most `2^916`).
const INV_LIMBS: usize = 16;

const fn pow5_split() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow = [0u64; POW_LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = bit_length(&pow);
        table[i] = if len >= POW5_BITCOUNT as u32 {
            bits_at(&pow, len - POW5_BITCOUNT as u32)
        } else {
            bits_at(&pow, 0) << (POW5_BITCOUNT as u32 - len)
        };
        mul5(&mut pow);
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; POW5_INV_TABLE_SIZE] {
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    // Exact powers of five, only to pin `pow5bits` to the true bit length.
    let mut pow = [0u64; POW_LIMBS];
    pow[0] = 1;
    // floor(2^1023 / 5^q), by repeated division by 5: nested floors
    // compose, so every entry is exact.
    let mut quotient = [0u64; INV_LIMBS];
    quotient[INV_LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < POW5_INV_TABLE_SIZE {
        let len = bit_length(&pow);
        assert!(len as i32 == pow5bits(q as i32), "pow5bits disagrees with 5^q");
        // floor(2^1023 / 5^q) >> s == floor(2^(1023 - s) / 5^q).
        let shift = 1023 - (len - 1 + POW5_INV_BITCOUNT as u32);
        table[q] = bits_at(&quotient, shift) + 1;
        mul5(&mut pow);
        div5(&mut quotient);
        q += 1;
    }
    table
}

const fn mul5(limbs: &mut [u64]) {
    let mut carry = 0u128;
    let mut k = 0;
    while k < limbs.len() {
        let p = limbs[k] as u128 * 5 + carry;
        limbs[k] = p as u64;
        carry = p >> 64;
        k += 1;
    }
    assert!(carry == 0, "power of five overflowed its limbs");
}

const fn div5(limbs: &mut [u64]) {
    let mut rem = 0u128;
    let mut k = limbs.len();
    while k > 0 {
        k -= 1;
        let cur = (rem << 64) | limbs[k] as u128;
        limbs[k] = (cur / 5) as u64;
        rem = cur % 5;
    }
}

const fn bit_length(limbs: &[u64]) -> u32 {
    let mut k = limbs.len();
    while k > 0 {
        k -= 1;
        if limbs[k] != 0 {
            return k as u32 * 64 + 64 - limbs[k].leading_zeros();
        }
    }
    0
}

/// The 128 bits of `limbs` from bit `shift` up; the caller guarantees the
/// bits above them are zero.
const fn bits_at(limbs: &[u64], shift: u32) -> u128 {
    let word = (shift / 64) as usize;
    let bit = shift % 64;
    let low = limb(limbs, word) | (limb(limbs, word + 1) << 64);
    if bit == 0 {
        low
    } else {
        (low >> bit) | (limb(limbs, word + 2) << (128 - bit))
    }
}

const fn limb(limbs: &[u64], k: usize) -> u128 {
    if k < limbs.len() {
        limbs[k] as u128
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(x: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn assert_display(x: f64) {
        assert_eq!(text(x), format!("{x}"), "bits {:#018x}", x.to_bits());
    }

    /// SplitMix64: a fixed stream of well-mixed 64-bit patterns.
    fn patterns(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn matches_display_on_the_edge_list() {
        let mut edges = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            5e-324,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            1e22,
            1e23,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            // Exactly halfway between two 17-digit candidates: 2^50 plus
            // a quarter or three quarters of its 0.25 spacing, written as
            // sums because the exact literals trip `excessive_precision`.
            1_125_899_906_842_624.0 + 0.25,
            1_125_899_906_842_624.0 + 0.75,
            700.25,
            19.6,
            166.7,
        ];
        for k in -1074..=1023 {
            let bits = if k < -1022 { 1u64 << (k + 1074) } else { ((k + 1023) as u64) << 52 };
            edges.push(f64::from_bits(bits));
        }
        for k in -30..=30 {
            edges.push(10f64.powi(k));
            edges.push(format!("1e{k}").parse().unwrap());
        }
        for x in edges {
            assert_display(x);
            assert_display(-x);
            assert_display(f64::from_bits(x.to_bits().wrapping_add(1)));
            assert_display(f64::from_bits(x.to_bits().wrapping_sub(1)));
        }
    }

    #[test]
    fn matches_display_on_a_million_random_bit_patterns() {
        for bits in patterns(0x5eed).take(1_000_000) {
            assert_display(f64::from_bits(bits));
        }
    }

    #[test]
    fn matches_display_on_short_decimals_and_integers() {
        // Trace fields are mostly short decimals and whole numbers.
        for (i, bits) in patterns(7).take(200_000).enumerate() {
            let places = (i % 7) as i32;
            let x = (bits % 10_000_000_000) as f64 / 10f64.powi(places);
            assert_display(x);
        }
    }

    #[test]
    fn parses_back_bit_exact() {
        for bits in patterns(11).take(100_000) {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                assert_eq!(text(x).parse::<f64>().unwrap().to_bits(), bits);
            }
        }
    }

    #[test]
    fn push_u64_matches_display() {
        let mut values = vec![0, 1, 9, 10, 99, 100, 101, 999, 1000, u64::MAX, u64::MAX - 1];
        for k in 0..20 {
            values.push(10u64.pow(k));
            values.push(10u64.pow(k) - 1);
        }
        values.extend(patterns(3).take(10_000));
        for v in values {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
