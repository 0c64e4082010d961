//! Portable transcendental kernels for the samplers.
//!
//! `f64::ln`, `exp`, `powf` and `cos` call the host's libm, whose last bit
//! differs between platforms and releases, so a draw made with them is a
//! function of the host as well as of the seed. Everything here is built
//! only from IEEE-754 operations that round exactly once as the standard
//! prescribes — `+ − × ÷`, `sqrt`, integer conversion and bit manipulation,
//! never a fused multiply–add — so every host computes the same bits:
//!
//! * [`ln`] — fdlibm's `__ieee754_log`: `x = 2^k (1 + f)`,
//!   `s = f / (2 + f)` and a degree-14 odd polynomial in `s`;
//! * [`exp`] — Tang's table method: `x = (64m + j) ln2/64 + r` with
//!   `|r| ≤ ln2/128`, so `e^x = 2^m · 2^(j/64) · e^r`, each `2^(j/64)`
//!   stored as a head and a tail and `e^r − 1` a degree-6 Taylor
//!   polynomial; no division;
//! * [`pow`] — `exp(y · ln x)`;
//! * [`std_normal`] — the 256-layer ziggurat (Marsaglia–Tsang 2000), its
//!   tables built once from [`ln`], [`exp`] and `sqrt`, its tail drawn by
//!   Marsaglia's method on [`ln`].
//!
//! `ln` and `exp` stay within one unit in the last place of std's (the
//! tests hold them to it over 10⁷ inputs each).

use rand::Rng;
use std::sync::LazyLock;

const LN2_HI: f64 = 0.6931471803691238;
const LN2_LO: f64 = 1.9082149292705877e-10;

/// Natural logarithm: `−∞` at ±0, NaN below zero and for NaN, `+∞` at `+∞`.
#[inline]
pub(crate) fn ln(x: f64) -> f64 {
    const TWO54: f64 = 1.801_439_850_948_198_4e16;
    const LG1: f64 = 0.6666666666666735;
    const LG2: f64 = 0.3999999999940942;
    const LG3: f64 = 0.2857142874366239;
    const LG4: f64 = 0.22222198432149784;
    const LG5: f64 = 0.1818357216161805;
    const LG6: f64 = 0.15313837699209373;
    const LG7: f64 = 0.14798198605116586;
    let mut x = x;
    // The high word, signed: negative for every negative input.
    let mut hx = (x.to_bits() >> 32) as i32;
    let mut k = 0i32;
    if hx < 0x0010_0000 {
        if x.to_bits() << 1 == 0 {
            return f64::NEG_INFINITY;
        }
        if hx < 0 {
            return f64::NAN;
        }
        // A subnormal: scale it into the normal range.
        k -= 54;
        x *= TWO54;
        hx = (x.to_bits() >> 32) as i32;
    }
    if hx >= 0x7ff0_0000 {
        return x + x;
    }
    k += (hx >> 20) - 1023;
    hx &= 0x000f_ffff;
    let i = (hx + 0x95f64) & 0x0010_0000;
    // The mantissa as x in [√2/2, √2): exponent 0, or −1 when above √2.
    let high = (hx | (i ^ 0x3ff0_0000)) as u64;
    let x = f64::from_bits(high << 32 | (x.to_bits() & 0xffff_ffff));
    k += i >> 20;
    let f = x - 1.0;
    let dk = f64::from(k);
    if (0x000f_ffff & (2 + hx)) < 3 {
        // |f| < 2^-20.
        if f == 0.0 {
            return dk * LN2_HI + dk * LN2_LO;
        }
        let r = f * f * (0.5 - 0.3333333333333333 * f);
        return if k == 0 {
            f - r
        } else {
            dk * LN2_HI - ((r - dk * LN2_LO) - f)
        };
    }
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    if ((hx - 0x6147a) | (0x6b851 - hx)) > 0 {
        let hfsq = 0.5 * f * f;
        if k == 0 {
            f - (hfsq - s * (hfsq + r))
        } else {
            dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
        }
    } else if k == 0 {
        f - s * (f - r)
    } else {
        dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f)
    }
}

/// `2^(j/64)` for `j` in `0..64`, as a head and the tail it rounded off.
#[rustfmt::skip]
const EXP2_64THS: [(f64, f64); 64] = [
    (1.0, 0.0),
    (1.0108892860517005, -1.5234778603368577e-17),
    (1.0218971486541166, 5.109225028973444e-17),
    (1.0330248790212284, 7.600838874027088e-18),
    (1.0442737824274138, 8.551889705537965e-17),
    (1.0556451783605572, 1.759325738772092e-18),
    (1.0671404006768237, -7.899853966841582e-17),
    (1.0787607977571199, -6.656660436056593e-17),
    (1.0905077326652577, -3.046782079812471e-17),
    (1.102382583307841, 5.2660368715706944e-17),
    (1.1143867425958924, 1.0410278456845571e-16),
    (1.1265216186082418, 5.165856758795457e-17),
    (1.1387886347566916, 8.912812676025408e-17),
    (1.1511892299529827, 3.250710218863827e-17),
    (1.1637248587775775, 3.8292048369240935e-17),
    (1.1763969916502812, 5.554203254218079e-17),
    (1.189207115002721, 3.982015231465646e-17),
    (1.202156731452703, 6.644981499252301e-17),
    (1.215247359980469, -7.712630692681488e-17),
    (1.22848053610687, -1.89878163130253e-17),
    (1.241857812073484, 4.658027591836937e-17),
    (1.255380757024691, -6.7113898212968784e-18),
    (1.2690509571917332, 2.667932131342186e-18),
    (1.2828700160787783, 1.713594918243561e-17),
    (1.2968395546510096, 2.5382502794888315e-17),
    (1.3109612115247644, -7.181536135519454e-17),
    (1.3252366431597413, -2.8587312100388614e-17),
    (1.339667524053303, 8.927282594831732e-17),
    (1.3542555469368927, 7.70094837980299e-17),
    (1.3690024229745905, 9.593797919118849e-17),
    (1.383909881963832, -6.770511658794786e-17),
    (1.3989796725383112, -9.614213209051323e-17),
    (std::f64::consts::SQRT_2, -9.667293313452913e-17),
    (1.42961333839197, -1.2031642489053655e-17),
    (1.4451808069770467, -3.0237581349939873e-17),
    (1.460917794180647, -5.600377186075216e-17),
    (1.4768261459394993, -3.483994556892796e-17),
    (1.4929077282912648, 1.4192920154284036e-17),
    (1.5091644275934228, -1.016455327754295e-16),
    (1.5255981507445384, -1.1024941712342561e-16),
    (1.5422108254079407, 7.949834809697621e-17),
    (1.559004400237837, 3.7812070533575275e-17),
    (1.5759808451078865, -1.0136916471278304e-17),
    (1.593142151342267, -1.0094406542311964e-16),
    (1.6104903319492543, 2.4707192569797888e-17),
    (1.6280274218573478, -6.712955084707084e-17),
    (1.645755478153965, -1.0125679913674773e-16),
    (1.6636765803267364, 5.8909926967131e-17),
    (1.681792830507429, 8.199010020581497e-17),
    (1.7001063537185235, -8.0237193703977e-18),
    (1.718619298122478, -1.851380418263111e-17),
    (1.7373338352737062, 3.164389299292957e-17),
    (1.7562521603732995, 2.960140695448873e-17),
    (1.7753764925265212, 6.429731796556572e-17),
    (1.7947090750031072, 1.8227458427912087e-17),
    (1.8142521755003989, -9.969531538920349e-17),
    (1.8340080864093424, 3.283107224245627e-17),
    (1.8539791250833855, 9.761887490727594e-17),
    (1.8741676341103, -6.122763413004143e-17),
    (1.8945759815869656, 3.4034035352165297e-17),
    (1.9152065613971474, -1.0619946056195963e-16),
    (1.9360617934922943, 1.0332385960676326e-16),
    (1.9571441241754002, 8.960767791036668e-17),
    (1.978456026387951, 4.0388753109278167e-17),
];

/// `2^e` for a biased exponent `e` in `1..=2046`.
fn two_to(biased: i64) -> f64 {
    f64::from_bits((biased as u64) << 52)
}

/// Exponential: `+∞` above ln(f64::MAX), `0` below the smallest
/// subnormal's logarithm, NaN for NaN.
#[inline]
pub(crate) fn exp(x: f64) -> f64 {
    const OVERFLOW: f64 = 709.782712893384;
    const UNDERFLOW: f64 = -745.1332191019411;
    const INV_LN2_64: f64 = 92.332_482_616_893_66;
    // ln2/64 split: the head has 32 significant bits, so `n × head` is
    // exact for every |n| < 2^21.
    const LN2_64_HI: f64 = 0.010830424696905538;
    const LN2_64_LO: f64 = -6.563_929_801_064_195e-13;
    // 1.5 × 2^52: adding it rounds to an integer held in the low bits.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    if x.is_nan() {
        return x;
    }
    if x > OVERFLOW {
        return f64::INFINITY;
    }
    if x < UNDERFLOW {
        return 0.0;
    }
    let shifted = x * INV_LN2_64 + SHIFT;
    let n = (shifted.to_bits() as i64) - (SHIFT.to_bits() as i64);
    let nd = shifted - SHIFT;
    let r_hi = x - nd * LN2_64_HI;
    let r_lo = -(nd * LN2_64_LO);
    let r = r_hi + r_lo;
    let q = r
        * r
        * (1.0 / 2.0 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0)))));
    let expm1_r = r_hi + (r_lo + q);
    let (head, tail) = EXP2_64THS[(n & 63) as usize];
    let y = head + (tail + head * expm1_r);
    let m = n >> 6;
    if m > 1023 {
        y * 2.0 * two_to(m - 1 + 1023)
    } else if m < -1022 {
        // Exact scaling into the normal range, then one rounding.
        y * two_to(m + 54 + 1023) * two_to(1023 - 54)
    } else {
        y * two_to(m + 1023)
    }
}

/// `x^y` as `exp(y · ln x)`, for `x ≥ 0` and a finite non-zero `y`.
pub(crate) fn pow(x: f64, y: f64) -> f64 {
    exp(y * ln(x))
}

/// One ziggurat: the layer edges `x` (decreasing; `x[0]` is the base
/// strip's virtual width, `x[256] = 0`) and the density at each edge.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// The right edge of the normal ziggurat's base layer.
const NORMAL_R: f64 = 3.654152885361009;

/// The standard normal's 256 equal-area layers, built on first use.
static NORMAL: LazyLock<Ziggurat> = LazyLock::new(|| {
    // The area of each layer: r·φ(r) plus the tail beyond r, for the
    // unnormalised density φ(x) = e^(−x²/2).
    const AREA: f64 = 4.928_673_233_974_654_5e-3;
    let density = |x: f64| exp(-0.5 * x * x);
    let mut x = [0.0; 257];
    x[0] = AREA / density(NORMAL_R);
    x[1] = NORMAL_R;
    for i in 1..255 {
        x[i + 1] = (-2.0 * ln(AREA / x[i] + density(x[i]))).sqrt();
    }
    Ziggurat {
        f: x.map(density),
        x,
    }
});

/// A uniform draw in (0, 1].
fn unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    1.0 - rng.gen::<f64>()
}

/// A standard normal deviate: one 64-bit word and a comparison ~99 % of
/// the time.
pub(crate) fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let zig = &*NORMAL;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // The top 52 bits as a uniform in [−1, 1).
        let u = 2.0 * f64::from_bits(bits >> 12 | 0x3ff0_0000_0000_0000) - 3.0;
        let x = u * zig.x[i];
        if x.abs() < zig.x[i + 1] {
            return x;
        }
        if i == 0 {
            return normal_tail(rng, u < 0.0);
        }
        let y = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * rng.gen::<f64>();
        if y < exp(-0.5 * x * x) {
            return x;
        }
    }
}

/// A normal deviate beyond ±[`NORMAL_R`] (Marsaglia 1964).
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let x = ln(unit(rng)) / NORMAL_R;
        let y = ln(unit(rng));
        if -2.0 * y >= x * x {
            return if negative { x - NORMAL_R } else { NORMAL_R - x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Dist, Exponential, Gamma, LogNormal, Pareto, Weibull};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Units in the last place between two results of the same sign class:
    /// the distance between their bit patterns, 0 for two NaNs.
    fn ulps(a: f64, b: f64) -> u64 {
        if a.is_nan() || b.is_nan() {
            return if a.is_nan() && b.is_nan() {
                0
            } else {
                u64::MAX
            };
        }
        if a == b {
            return 0;
        }
        if a.is_sign_negative() != b.is_sign_negative() {
            return u64::MAX;
        }
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The largest ulp distance of `ours` from `std` over `inputs`, with
    /// the input that reached it.
    fn worst(
        inputs: impl Iterator<Item = f64>,
        ours: fn(f64) -> f64,
        std: fn(f64) -> f64,
    ) -> (u64, f64) {
        inputs.fold((0, f64::NAN), |(max, at), x| {
            let d = ulps(ours(x), std(x));
            if d > max {
                (d, x)
            } else {
                (max, at)
            }
        })
    }

    const N: usize = 10_000_000;

    /// 10⁷ positive inputs: a third anywhere in the finite range
    /// (subnormals included), a third uniform in (0, 4], a third within
    /// 2⁻¹⁰ of 1, where `ln`'s cancellation is hardest. Bound: 1 ulp.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn detmath_ln_is_within_one_ulp_of_std() {
        let mut rng = StdRng::seed_from_u64(0x1_0E);
        let inputs = (0..N).map(|i| match i % 3 {
            0 => f64::from_bits(rng.gen_range(1..f64::INFINITY.to_bits())),
            1 => 4.0 * (1.0 - rng.gen::<f64>()),
            _ => 1.0 + (rng.gen::<f64>() - 0.5) / 512.0,
        });
        let (max, at) = worst(inputs, ln, f64::ln);
        assert!(max <= 1, "ln({at:e}) is {max} ulps from std");
    }

    /// 10⁷ inputs: half uniform over the whole non-saturating range
    /// [−745.13, 709.78] (subnormal results included), half uniform in
    /// [−2, 2]. Bound: 1 ulp.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn detmath_exp_is_within_one_ulp_of_std() {
        let mut rng = StdRng::seed_from_u64(0xE_0E);
        let inputs = (0..N).map(|i| match i % 2 {
            0 => rng.gen_range(-745.13..709.78),
            _ => rng.gen_range(-2.0..2.0),
        });
        let (max, at) = worst(inputs, exp, f64::exp);
        assert!(max <= 1, "exp({at:e}) is {max} ulps from std");
    }

    #[test]
    fn special_values_match_std() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            709.79,
            -745.2,
            -745.13,
        ];
        for x in specials {
            assert_eq!(ulps(ln(x), x.ln()), 0, "ln({x:e})");
            assert!(ulps(exp(x), x.exp()) <= 1, "exp({x:e})");
        }
    }

    /// Any bit pattern at all: a NaN, an infinity, a zero, a subnormal, a
    /// magnitude far past exp's saturation.
    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(0.0),
                Just(-0.0),
                Just(f64::MAX),
                Just(f64::from_bits(1)),
            ],
            -800.0..800.0f64,
            (0u64..1 << 52).prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_096))]

        /// No input panics (overflow checks are on in release), and each
        /// result is std's to the ulp: equal on the special values, NaN
        /// exactly where std's is.
        #[test]
        fn detmath_kernels_take_any_bit_pattern(x in any_f64(), y in any_f64()) {
            prop_assert!(ulps(ln(x), x.ln()) <= 1, "ln({:e})", x);
            prop_assert!(ulps(exp(x), x.exp()) <= 1, "exp({:e})", x);
            let _ = pow(x.abs(), y);
        }
    }

    #[test]
    fn the_ziggurat_has_256_equal_layers() {
        let zig = &*NORMAL;
        assert_eq!((zig.x[256], zig.f[256]), (0.0, 1.0));
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        // Layer i spans x[i+1]..x[i] wide and f[i]..f[i+1] high: its
        // rectangle x[i]·(f[i+1] − f[i]) has the base layer's area.
        let base = zig.x[0] * zig.f[1];
        for i in 1..255 {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!(
                (area / base - 1.0).abs() < 1e-9,
                "layer {i}: {area} vs {base}"
            );
        }
    }

    #[test]
    fn std_normal_moments_and_tails() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 400_000;
        let z: Vec<f64> = (0..n).map(|_| std_normal(&mut rng)).collect();
        let mean = z.iter().sum::<f64>() / n as f64;
        let var = z.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "var {var}");
        // P(|Z| > NORMAL_R) = 2.58e-4: ~103 of 400 000 come from the tail.
        let tail = z.iter().filter(|x| x.abs() > NORMAL_R).count();
        assert!((60..150).contains(&tail), "{tail} tail draws");
    }

    /// 10⁶ portable draws against 10⁶ libm draws: `default_epc`'s five
    /// service laws (median µs, σ), one exponential, and the `pow` and
    /// Gamma paths, each a two-sample K–S test at α = 0.01.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn detmath_sample_portable_draws_the_same_laws_as_sample() {
        let lognormal =
            |median: f64, sigma| Dist::LogNormal(LogNormal::from_median(median, sigma).unwrap());
        let laws = [
            lognormal(350.0, 0.4),
            lognormal(450.0, 0.4),
            lognormal(400.0, 0.4),
            lognormal(250.0, 0.35),
            lognormal(250.0, 0.35),
            Dist::Exponential(Exponential::new(1.0 / 10_000.0).unwrap()),
            Dist::Pareto(Pareto::new(2.5, 100.0).unwrap()),
            Dist::Weibull(Weibull::new(0.7, 300.0).unwrap()),
            Dist::Gamma(Gamma::new(2.5, 40.0).unwrap()),
            Dist::Gamma(Gamma::new(0.6, 40.0).unwrap()),
        ];
        let n = 1_000_000;
        for (i, law) in laws.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x5A3 + i as u64);
            let portable: Vec<f64> = (0..n).map(|_| law.sample_portable(&mut rng)).collect();
            let libm: Vec<f64> = (0..n).map(|_| law.sample(&mut rng)).collect();
            let ks = crate::two_sample_test(&portable, &libm).unwrap();
            assert!(ks.p_value > 0.01, "law {i} ({law:?}): {ks:?}");
        }
    }
}
