//! The `.pbit` compressed model format.
//!
//! The paper's deployment flow (Fig 2) converts a trained model into "the
//! compressed PhoneBit format" that is uploaded to the phone. This module
//! defines that container: a little-endian binary layout holding packed
//! binary weights, fused thresholds and the few float layers.
//!
//! ```text
//! magic "PBIT" | version u16 | name | input Shape4
//! layer count u32 | layers...
//! ```
//!
//! Strings are `u32` length + UTF-8. Packed filters are their shape plus
//! raw `u64` words. All multi-byte values are little-endian.

use bytes::{Buf, BufMut};

use phonebit_nn::act::Activation;
use phonebit_nn::fuse::FusedBn;
use phonebit_nn::kernels::pool::PoolGeometry;
use phonebit_tensor::bits::PackedFilters;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};
use phonebit_tensor::tensor::Filters;

use crate::model::{PbitLayer, PbitModel};

/// Format version written by this build.
const FORMAT_VERSION: u16 = 1;
const MAGIC: &[u8; 4] = b"PBIT";

/// Errors from reading a `.pbit` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The payload does not start with the `PBIT` magic.
    BadMagic,
    /// The version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The payload ended before a field could be read.
    UnexpectedEof,
    /// An unknown layer tag was encountered.
    BadTag(u8),
    /// A field failed validation.
    BadData(String),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a .pbit payload (bad magic)"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::UnexpectedEof => write!(f, "unexpected end of payload"),
            FormatError::BadTag(t) => write!(f, "unknown layer tag {t}"),
            FormatError::BadData(m) => write!(f, "malformed field: {m}"),
        }
    }
}

impl std::error::Error for FormatError {}

// ---- writing -------------------------------------------------------------

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn put_shape(out: &mut Vec<u8>, s: Shape4) {
    out.put_u32_le(s.n as u32);
    out.put_u32_le(s.h as u32);
    out.put_u32_le(s.w as u32);
    out.put_u32_le(s.c as u32);
}

fn put_geom(out: &mut Vec<u8>, g: &ConvGeometry) {
    for v in [g.kh, g.kw, g.stride_h, g.stride_w, g.pad_h, g.pad_w] {
        out.put_u32_le(v as u32);
    }
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    out.put_u32_le(vs.len() as u32);
    for &v in vs {
        out.put_f32_le(v);
    }
}

fn put_packed(out: &mut Vec<u8>, p: &PackedFilters<u64>) {
    let s = p.shape();
    for v in [s.k, s.kh, s.kw, s.c] {
        out.put_u32_le(v as u32);
    }
    out.put_u32_le(p.as_words().len() as u32);
    for &w in p.as_words() {
        out.put_u64_le(w);
    }
}

fn put_fused(out: &mut Vec<u8>, f: &FusedBn) {
    put_f32s(out, &f.xi);
    out.put_u32_le(f.gamma_pos.len() as u32);
    // Pack gamma signs 8 per byte.
    let mut byte = 0u8;
    for (i, &g) in f.gamma_pos.iter().enumerate() {
        if g {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.put_u8(byte);
            byte = 0;
        }
    }
    if !f.gamma_pos.len().is_multiple_of(8) {
        out.put_u8(byte);
    }
}

fn put_filters(out: &mut Vec<u8>, f: &Filters) {
    let s = f.shape();
    for v in [s.k, s.kh, s.kw, s.c] {
        out.put_u32_le(v as u32);
    }
    for &v in f.as_slice() {
        out.put_f32_le(v);
    }
}

fn put_activation(out: &mut Vec<u8>, a: Activation) {
    match a {
        Activation::Linear => {
            out.put_u8(0);
            out.put_f32_le(0.0);
        }
        Activation::Relu => {
            out.put_u8(1);
            out.put_f32_le(0.0);
        }
        Activation::Leaky(alpha) => {
            out.put_u8(2);
            out.put_f32_le(alpha);
        }
    }
}

/// Serializes a model to `.pbit` bytes.
pub fn write_model(model: &PbitModel) -> Vec<u8> {
    let mut out = Vec::with_capacity(model.size_bytes() + 1024);
    out.put_slice(MAGIC);
    out.put_u16_le(FORMAT_VERSION);
    put_string(&mut out, &model.name);
    put_shape(&mut out, model.input);
    out.put_u32_le(model.layers.len() as u32);
    for layer in &model.layers {
        match layer {
            PbitLayer::BConvInput8 {
                name,
                geom,
                filters,
                fused,
            } => {
                out.put_u8(1);
                put_string(&mut out, name);
                put_geom(&mut out, geom);
                put_packed(&mut out, filters);
                put_fused(&mut out, fused);
            }
            PbitLayer::BConv {
                name,
                geom,
                filters,
                fused,
            } => {
                out.put_u8(2);
                put_string(&mut out, name);
                put_geom(&mut out, geom);
                put_packed(&mut out, filters);
                put_fused(&mut out, fused);
            }
            PbitLayer::FConv {
                name,
                geom,
                filters,
                bias,
                activation,
            } => {
                out.put_u8(3);
                put_string(&mut out, name);
                put_geom(&mut out, geom);
                put_filters(&mut out, filters);
                put_f32s(&mut out, bias);
                put_activation(&mut out, *activation);
            }
            PbitLayer::MaxPoolBits { name, geom } => {
                out.put_u8(4);
                put_string(&mut out, name);
                out.put_u32_le(geom.size as u32);
                out.put_u32_le(geom.stride as u32);
            }
            PbitLayer::MaxPoolF32 { name, geom } => {
                out.put_u8(5);
                put_string(&mut out, name);
                out.put_u32_le(geom.size as u32);
                out.put_u32_le(geom.stride as u32);
            }
            PbitLayer::DenseBin {
                name,
                weights,
                fused,
            } => {
                out.put_u8(6);
                put_string(&mut out, name);
                put_packed(&mut out, weights);
                put_fused(&mut out, fused);
            }
            PbitLayer::DenseFloat {
                name,
                weights,
                bias,
                activation,
            } => {
                out.put_u8(7);
                put_string(&mut out, name);
                out.put_u32_le(bias.len() as u32);
                put_f32s(&mut out, weights);
                put_f32s(&mut out, bias);
                put_activation(&mut out, *activation);
            }
            PbitLayer::Softmax => out.put_u8(8),
        }
    }
    out
}

// ---- reading -------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, n: usize) -> Result<(), FormatError> {
        if self.buf.remaining() < n {
            Err(FormatError::UnexpectedEof)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self) -> Result<u16, FormatError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    fn u32(&mut self) -> Result<usize, FormatError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le() as usize)
    }

    fn f32(&mut self) -> Result<f32, FormatError> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }

    fn string(&mut self) -> Result<String, FormatError> {
        let len = self.u32()?;
        self.need(len)?;
        let bytes = self.buf[..len].to_vec();
        self.buf.advance(len);
        String::from_utf8(bytes).map_err(|_| FormatError::BadData("non-utf8 string".into()))
    }

    fn shape(&mut self) -> Result<Shape4, FormatError> {
        Ok(Shape4::new(
            self.u32()?,
            self.u32()?,
            self.u32()?,
            self.u32()?,
        ))
    }

    fn geom(&mut self) -> Result<ConvGeometry, FormatError> {
        let geom = ConvGeometry {
            kh: self.u32()?,
            kw: self.u32()?,
            stride_h: self.u32()?,
            stride_w: self.u32()?,
            pad_h: self.u32()?,
            pad_w: self.u32()?,
        };
        if [geom.kh, geom.kw, geom.stride_h, geom.stride_w].contains(&0) {
            return Err(FormatError::BadData(format!(
                "zero kernel or stride: {geom:?}"
            )));
        }
        Ok(geom)
    }

    fn pool(&mut self) -> Result<PoolGeometry, FormatError> {
        let (size, stride) = (self.u32()?, self.u32()?);
        if size == 0 || stride == 0 {
            return Err(FormatError::BadData(format!(
                "pool size {size}, stride {stride}"
            )));
        }
        Ok(PoolGeometry::new(size, stride))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, FormatError> {
        let len = self.u32()?;
        let len = self.need_elems(Some(len), 4)?;
        Ok((0..len).map(|_| self.buf.get_f32_le()).collect())
    }

    /// Fails unless `len` elements (`None`: the count overflowed) of `size`
    /// bytes are still in the payload — asked before allocating for them.
    fn need_elems(&self, len: Option<usize>, size: usize) -> Result<usize, FormatError> {
        let len = len.ok_or(FormatError::UnexpectedEof)?;
        self.need(len.checked_mul(size).ok_or(FormatError::UnexpectedEof)?)?;
        Ok(len)
    }

    fn packed(&mut self) -> Result<PackedFilters<u64>, FormatError> {
        let (k, kh, kw, c) = (self.u32()?, self.u32()?, self.u32()?, self.u32()?);
        let words = self.u32()?;
        let shape = FilterShape::new(k, kh, kw, c);
        let expected = PackedFilters::<u64>::checked_word_len(shape);
        if expected != Some(words) {
            return Err(FormatError::BadData(format!(
                "packed filter words {words} != expected {expected:?} for {shape}"
            )));
        }
        self.need_elems(expected, 8)?;
        let data = (0..words).map(|_| self.buf.get_u64_le()).collect();
        PackedFilters::from_words(shape, data)
            .ok_or_else(|| FormatError::BadData("dirty tail bits in packed filters".into()))
    }

    fn fused(&mut self) -> Result<FusedBn, FormatError> {
        let xi = self.f32s()?;
        let n = self.u32()?;
        if n != xi.len() {
            return Err(FormatError::BadData("fused lengths disagree".into()));
        }
        let nbytes = n.div_ceil(8);
        self.need(nbytes)?;
        let gamma_pos = (0..n).map(|i| (self.buf[i / 8] >> (i % 8)) & 1 == 1);
        let gamma_pos = gamma_pos.collect();
        self.buf.advance(nbytes);
        Ok(FusedBn { xi, gamma_pos })
    }

    fn filters(&mut self) -> Result<Filters, FormatError> {
        let (k, kh, kw, c) = (self.u32()?, self.u32()?, self.u32()?, self.u32()?);
        let len = [kh, kw, c].iter().try_fold(k, |n, &d| n.checked_mul(d));
        let len = self.need_elems(len, 4)?;
        let data = (0..len).map(|_| self.buf.get_f32_le()).collect();
        Ok(Filters::from_vec(FilterShape::new(k, kh, kw, c), data))
    }

    fn activation(&mut self) -> Result<Activation, FormatError> {
        let tag = self.u8()?;
        let alpha = self.f32()?;
        match tag {
            0 => Ok(Activation::Linear),
            1 => Ok(Activation::Relu),
            2 => Ok(Activation::Leaky(alpha)),
            t => Err(FormatError::BadData(format!("unknown activation tag {t}"))),
        }
    }
}

/// Deserializes a model from `.pbit` bytes.
///
/// # Errors
///
/// Returns a [`FormatError`] on truncated, corrupt or unsupported payloads.
pub fn read_model(payload: &[u8]) -> Result<PbitModel, FormatError> {
    let mut r = Reader { buf: payload };
    r.need(4)?;
    if &r.buf[..4] != MAGIC {
        return Err(FormatError::BadMagic);
    }
    r.buf.advance(4);
    let version = r.u16()?;
    if version > FORMAT_VERSION {
        return Err(FormatError::UnsupportedVersion(version));
    }
    let name = r.string()?;
    let input = r.shape()?;
    let count = r.u32()?;
    let mut layers = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let tag = r.u8()?;
        layers.push(match tag {
            1 => PbitLayer::BConvInput8 {
                name: r.string()?,
                geom: r.geom()?,
                filters: r.packed()?,
                fused: r.fused()?,
            },
            2 => PbitLayer::BConv {
                name: r.string()?,
                geom: r.geom()?,
                filters: r.packed()?,
                fused: r.fused()?,
            },
            3 => PbitLayer::FConv {
                name: r.string()?,
                geom: r.geom()?,
                filters: r.filters()?,
                bias: r.f32s()?,
                activation: r.activation()?,
            },
            4 => PbitLayer::MaxPoolBits {
                name: r.string()?,
                geom: r.pool()?,
            },
            5 => PbitLayer::MaxPoolF32 {
                name: r.string()?,
                geom: r.pool()?,
            },
            6 => PbitLayer::DenseBin {
                name: r.string()?,
                weights: r.packed()?,
                fused: r.fused()?,
            },
            7 => {
                let name = r.string()?;
                let _out = r.u32()?;
                PbitLayer::DenseFloat {
                    name,
                    weights: r.f32s()?,
                    bias: r.f32s()?,
                    activation: r.activation()?,
                }
            }
            8 => PbitLayer::Softmax,
            t => return Err(FormatError::BadTag(t)),
        });
    }
    Ok(PbitModel {
        name,
        input,
        layers,
    })
}

/// Writes a model to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_file(model: &PbitModel, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, write_model(model))
}

/// Reads a model from a file.
///
/// # Errors
///
/// Propagates filesystem errors; format errors become
/// [`std::io::ErrorKind::InvalidData`].
pub fn load_file(path: &std::path::Path) -> std::io::Result<PbitModel> {
    let payload = std::fs::read(path)?;
    read_model(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> PbitModel {
        let mut filters = PackedFilters::<u64>::zeros(FilterShape::new(8, 3, 3, 70));
        for k in 0..8 {
            for c in 0..70 {
                if (k + c) % 3 == 0 {
                    filters.set_bit(k, 1, 1, c, true);
                }
            }
        }
        let fused = FusedBn {
            xi: (0..8).map(|i| i as f32 * 1.5 - 3.0).collect(),
            gamma_pos: (0..8).map(|i| i % 3 != 0).collect(),
        };
        let mut dense_w = PackedFilters::<u64>::zeros(FilterShape::new(10, 1, 1, 130));
        dense_w.set_bit(9, 0, 0, 129, true);
        PbitModel {
            name: "sample".into(),
            input: Shape4::new(1, 8, 8, 3),
            layers: vec![
                PbitLayer::BConvInput8 {
                    name: "conv1".into(),
                    geom: ConvGeometry::square(3, 1, 1),
                    filters: filters.clone(),
                    fused: fused.clone(),
                },
                PbitLayer::MaxPoolBits {
                    name: "pool1".into(),
                    geom: PoolGeometry::new(2, 2),
                },
                PbitLayer::BConv {
                    name: "conv2".into(),
                    geom: ConvGeometry::square(3, 2, 1),
                    filters,
                    fused: fused.clone(),
                },
                PbitLayer::FConv {
                    name: "conv3".into(),
                    geom: ConvGeometry::square(1, 1, 0),
                    filters: Filters::from_vec(
                        FilterShape::new(2, 1, 1, 3),
                        vec![0.5, -0.25, 1.0, -1.0, 0.0, 2.0],
                    ),
                    bias: vec![0.1, -0.2],
                    activation: Activation::Leaky(0.1),
                },
                PbitLayer::DenseBin {
                    name: "fc1".into(),
                    weights: dense_w,
                    fused,
                },
                PbitLayer::DenseFloat {
                    name: "fc2".into(),
                    weights: vec![1.0, -2.0, 3.0, -4.0],
                    bias: vec![0.5, -0.5],
                    activation: Activation::Relu,
                },
                PbitLayer::Softmax,
            ],
        }
    }

    #[test]
    fn round_trip_preserves_model() {
        let model = sample_model();
        let payload = write_model(&model);
        let back = read_model(&payload).unwrap();
        assert_eq!(model, back);
    }

    /// A one-`BConv` payload whose packed header declares `dims` and
    /// `words` and is followed by `data` (and nothing else).
    fn bconv_payload(dims: [u32; 4], words: u32, data: &[u64]) -> Vec<u8> {
        let mut p = write_model(&PbitModel {
            name: "hostile".into(),
            input: Shape4::new(1, 4, 4, 3),
            layers: vec![],
        });
        let count = p.len() - 4;
        p[count..].copy_from_slice(&1u32.to_le_bytes());
        p.put_u8(2);
        put_string(&mut p, "conv");
        put_geom(&mut p, &ConvGeometry::square(3, 1, 1));
        for v in dims.into_iter().chain([words]) {
            p.put_u32_le(v);
        }
        data.iter().for_each(|&w| p.put_u64_le(w));
        p
    }

    #[test]
    fn packed_header_is_checked_before_anything_is_allocated() {
        // Shapes whose word count overflows or runs to exabytes, and word
        // counts the payload cannot hold (34 GB declared, 0 bytes present):
        // each is an error, none a panic or an allocation of that size.
        let big = u32::MAX;
        for (dims, words) in [
            ([big; 4], 0),
            ([big; 4], big),
            ([big, big, 1, 1], 1),
            ([big, 1, 1, 64], big),
            ([1 << 20, 3, 3, 64], 9 << 20),
        ] {
            let got = read_model(&bconv_payload(dims, words, &[0; 4]));
            assert!(
                matches!(
                    got,
                    Err(FormatError::BadData(_) | FormatError::UnexpectedEof)
                ),
                "{dims:?} / {words} words: {got:?}"
            );
        }
        // The same holes in a float bank's header.
        let mut p = bconv_payload([big; 4], 0, &[]);
        let tag = p.len() - (4 + 4 + 6 * 4 + 5 * 4) - 1;
        p[tag] = 3;
        assert_eq!(read_model(&p), Err(FormatError::UnexpectedEof));
    }

    #[test]
    fn zero_kernels_strides_and_pools_are_bad_data() {
        // One layer of `tag` whose geometry is `fields`, nothing after it:
        // the geometry is refused before anything else is read.
        let payload = |tag: u8, fields: &[u32]| {
            let mut p = write_model(&PbitModel {
                name: "hostile".into(),
                input: Shape4::new(1, 4, 4, 3),
                layers: vec![],
            });
            let count = p.len() - 4;
            p[count..].copy_from_slice(&1u32.to_le_bytes());
            p.put_u8(tag);
            put_string(&mut p, "layer");
            fields.iter().for_each(|&v| p.put_u32_le(v));
            p
        };
        for fields in [
            [0, 3, 1, 1, 1, 1],
            [3, 0, 1, 1, 1, 1],
            [3, 3, 0, 1, 1, 1],
            [3, 3, 1, 0, 0, 0],
        ] {
            for tag in [1, 2, 3] {
                let got = read_model(&payload(tag, &fields));
                assert!(
                    matches!(got, Err(FormatError::BadData(_))),
                    "{tag} {fields:?}: {got:?}"
                );
            }
        }
        for fields in [[0, 2], [2, 0], [0, 0]] {
            for tag in [4, 5] {
                let got = read_model(&payload(tag, &fields));
                assert!(
                    matches!(got, Err(FormatError::BadData(_))),
                    "{tag} {fields:?}: {got:?}"
                );
            }
        }
        assert!(
            read_model(&payload(4, &[2, 2])).is_ok(),
            "a 2x2/2 pool reads"
        );
    }

    #[test]
    fn dirty_tail_bits_are_bad_data() {
        // C = 3: bit 3 of the one word is past the last channel.
        for (word, clean) in [(0b0111, true), (0b1000, false), (1 << 63, false)] {
            match read_model(&bconv_payload([1, 1, 1, 3], 1, &[word])) {
                // A clean word gets as far as the missing thresholds.
                Err(FormatError::UnexpectedEof) if clean => {}
                Err(FormatError::BadData(m)) if !clean => assert!(m.contains("dirty tail"), "{m}"),
                other => panic!("word {word:#b}: {other:?}"),
            }
        }
    }

    #[test]
    fn read_then_write_is_byte_identical_at_every_tail_length() {
        for c in [1, 3, 63, 64, 65, 130] {
            let mut filters = PackedFilters::<u64>::zeros(FilterShape::new(5, 3, 3, c));
            let mut weights = PackedFilters::<u64>::zeros(FilterShape::new(7, 1, 1, c));
            for ch in 0..c {
                for k in 0..7 {
                    weights.set_bit(k, 0, 0, ch, (k * 5 + ch * 3) % 7 < 3);
                }
                for (k, i, j) in (0..5).flat_map(|k| (0..9).map(move |t| (k, t / 3, t % 3))) {
                    filters.set_bit(k, i, j, ch, (k + 2 * i + 3 * j + ch * ch) % 5 < 2);
                }
            }
            let model = PbitModel {
                name: format!("c{c}"),
                input: Shape4::new(1, 4, 4, c),
                layers: vec![
                    PbitLayer::BConv {
                        name: "conv".into(),
                        geom: ConvGeometry::square(3, 1, 1),
                        filters,
                        fused: FusedBn::identity(5),
                    },
                    PbitLayer::DenseBin {
                        name: "fc".into(),
                        weights,
                        fused: FusedBn::identity(7),
                    },
                ],
            };
            let bytes = write_model(&model);
            let back = read_model(&bytes).unwrap();
            assert_eq!(back, model, "C = {c}");
            assert_eq!(write_model(&back), bytes, "C = {c}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut payload = write_model(&sample_model());
        payload[0] = b'X';
        assert_eq!(read_model(&payload), Err(FormatError::BadMagic));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let payload = write_model(&sample_model());
        // Any truncation point must yield an error, never a panic.
        for cut in 0..payload.len() {
            let r = read_model(&payload[..cut]);
            assert!(r.is_err(), "truncation at {cut} silently succeeded");
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut payload = write_model(&sample_model());
        payload[4] = 0xFF;
        payload[5] = 0xFF;
        assert_eq!(
            read_model(&payload),
            Err(FormatError::UnsupportedVersion(0xFFFF))
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        let model = PbitModel {
            name: "t".into(),
            input: Shape4::new(1, 1, 1, 1),
            layers: vec![PbitLayer::Softmax],
        };
        let mut payload = write_model(&model);
        let last = payload.len() - 1;
        payload[last] = 99;
        assert_eq!(read_model(&payload), Err(FormatError::BadTag(99)));
    }

    #[test]
    fn file_round_trip() {
        let model = sample_model();
        let dir = std::env::temp_dir().join("phonebit_format_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.pbit");
        save_file(&model, &path).unwrap();
        let back = load_file(&path).unwrap();
        assert_eq!(model, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_is_compact() {
        let model = sample_model();
        let payload = write_model(&model);
        // Container overhead stays small relative to a float model of the
        // same architecture.
        assert!(payload.len() < model.size_bytes() * 2 + 4096);
    }

    #[test]
    fn error_display() {
        assert!(FormatError::BadMagic.to_string().contains("magic"));
        assert!(FormatError::BadTag(7).to_string().contains('7'));
    }
}
