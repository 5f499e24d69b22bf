//! The slice-stack file format.
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! [0..4)   magic  "XCTD"
//! [4..8)   format version (u32) = 1
//! [8..9)   kind   (0 = sinogram, 1 = volume)
//! [9..10)  precision tag (2 = half, 4 = single, 8 = double storage bytes)
//! [10..18) slices (u64)
//! [18..26) slice_len (u64)
//! [26.. )  payload: slices × slice_len scalars at storage precision
//! trailer: FNV-1a 64 checksum of the payload (u64)
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use xct_fp16::{Precision, StorageScalar, F16};

const MAGIC: [u8; 4] = *b"XCTD";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 26;

/// What a slice file stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Measurement data: each slice is one sinogram (angles × channels).
    Sinogram,
    /// Reconstruction output: each slice is one tomogram plane.
    Volume,
}

impl FileKind {
    fn tag(self) -> u8 {
        match self {
            FileKind::Sinogram => 0,
            FileKind::Volume => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, IoError> {
        match tag {
            0 => Ok(FileKind::Sinogram),
            1 => Ok(FileKind::Volume),
            other => Err(IoError::Format(format!("unknown file kind tag {other}"))),
        }
    }
}

/// I/O failure.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Os(std::io::Error),
    /// Malformed file (bad magic, version, tags, truncation).
    Format(String),
    /// The payload ended before a batch was fully read: the file is
    /// shorter than its header claims. Carries the path and the exact
    /// byte counts so the failure is actionable without re-running.
    ShortRead {
        /// File the read came from.
        path: String,
        /// Bytes the batch needed.
        expected: u64,
        /// Bytes actually available.
        actual: u64,
    },
    /// Payload does not match the stored checksum.
    ChecksumMismatch {
        /// Stored value.
        expected: u64,
        /// Recomputed value.
        actual: u64,
    },
    /// Caller supplied data of the wrong shape.
    Shape(String),
    /// A background I/O worker thread panicked. The thread owned the
    /// file handle, so it is lost and the stream cannot continue.
    WorkerPanic {
        /// Which worker died: `"prefetch"` or `"write-back"`.
        role: &'static str,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Os(e) => write!(f, "I/O error: {e}"),
            IoError::Format(m) => write!(f, "malformed slice file: {m}"),
            IoError::ShortRead {
                path,
                expected,
                actual,
            } => write!(
                f,
                "short read in {path}: expected {expected} bytes, got {actual}"
            ),
            IoError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
                )
            }
            IoError::Shape(m) => write!(f, "shape error: {m}"),
            IoError::WorkerPanic { role } => {
                write!(f, "background {role} I/O thread panicked; stream aborted")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Os(e)
    }
}

/// File metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceFile {
    /// Sinogram or volume.
    pub kind: FileKind,
    /// Storage precision of the payload.
    pub precision: Precision,
    /// Number of slices.
    pub slices: usize,
    /// Scalars per slice.
    pub slice_len: usize,
}

impl SliceFile {
    /// Payload bytes (the I/O volume this file contributes to Table II).
    pub fn payload_bytes(&self) -> u64 {
        self.slices as u64 * self.slice_len as u64 * self.precision.storage_bytes() as u64
    }
}

/// FNV-1a 64-bit running hash.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn precision_from_tag(tag: u8) -> Result<Precision, IoError> {
    match tag {
        2 => Ok(Precision::Half),
        4 => Ok(Precision::Single),
        8 => Ok(Precision::Double),
        other => Err(IoError::Format(format!("unknown precision tag {other}"))),
    }
}

/// Values per stack-held run of the payload codec.
const RUN: usize = 256;

/// Writes `slice` rounded to `S` as its bytes into `out`, a stack-held
/// run at a time.
fn encode_as<S: StorageScalar>(slice: &[f32], out: &mut [u8]) {
    let mut run = [S::zero(); RUN];
    for (src, bytes) in slice.chunks(RUN).zip(out.chunks_mut(RUN * S::BYTES)) {
        let run = &mut run[..src.len()];
        S::narrow_into(src, run);
        S::encode_run(run, bytes);
    }
}

/// Reads the values of `S` whose bytes `bytes` holds, widened into `out`,
/// a stack-held run at a time.
fn decode_as<S: StorageScalar>(bytes: &[u8], out: &mut [f32]) {
    let mut run = [S::zero(); RUN];
    for (bytes, dst) in bytes.chunks(RUN * S::BYTES).zip(out.chunks_mut(RUN)) {
        let run = &mut run[..dst.len()];
        S::decode_run(bytes, run);
        S::widen_into(run, dst);
    }
}

/// A payload's `(encode, decode)` at one storage scalar.
type Codec = (fn(&[f32], &mut [u8]), fn(&[u8], &mut [f32]));

/// The codec of `precision`'s storage scalar: the one place a file's
/// precision picks its storage type.
fn codec(precision: Precision) -> Codec {
    match precision {
        Precision::Double => (encode_as::<f64>, decode_as::<f64>),
        Precision::Single => (encode_as::<f32>, decode_as::<f32>),
        Precision::Half | Precision::Mixed => (encode_as::<F16>, decode_as::<F16>),
    }
}

/// Sequential slice writer.
pub struct SliceWriter {
    meta: SliceFile,
    out: BufWriter<File>,
    written: usize,
    hash: Fnv1a,
    /// One slice's payload, encoded by `encode`.
    buf: Vec<u8>,
    encode: fn(&[f32], &mut [u8]),
}

impl SliceWriter {
    /// Creates the file and writes the header.
    pub fn create(path: impl AsRef<Path>, meta: SliceFile) -> Result<Self, IoError> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&[meta.kind.tag()])?;
        out.write_all(&[meta.precision.storage_bytes() as u8])?;
        out.write_all(&(meta.slices as u64).to_le_bytes())?;
        out.write_all(&(meta.slice_len as u64).to_le_bytes())?;
        Ok(SliceWriter {
            meta,
            out,
            written: 0,
            hash: Fnv1a::new(),
            buf: vec![0; meta.slice_len * meta.precision.storage_bytes()],
            encode: codec(meta.precision).0,
        })
    }

    /// File metadata this writer was created with.
    pub fn meta(&self) -> SliceFile {
        self.meta
    }

    /// Appends one slice (quantized to the file's storage precision),
    /// encoded into the writer's own buffer: no allocation.
    pub fn write_slice(&mut self, slice: &[f32]) -> Result<(), IoError> {
        if slice.len() != self.meta.slice_len {
            return Err(IoError::Shape(format!(
                "slice of {} scalars, file expects {}",
                slice.len(),
                self.meta.slice_len
            )));
        }
        if self.written >= self.meta.slices {
            return Err(IoError::Shape(format!(
                "file already holds all {} slices",
                self.meta.slices
            )));
        }
        (self.encode)(slice, &mut self.buf);
        self.hash.update(&self.buf);
        self.out.write_all(&self.buf)?;
        self.written += 1;
        Ok(())
    }

    /// Writes the checksum trailer and flushes. Must be called after all
    /// slices are written.
    pub fn finish(mut self) -> Result<(), IoError> {
        if self.written != self.meta.slices {
            return Err(IoError::Shape(format!(
                "only {}/{} slices written",
                self.written, self.meta.slices
            )));
        }
        let checksum = self.hash.finish();
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.flush()?;
        Ok(())
    }
}

/// Batched slice reader.
pub struct SliceReader {
    meta: SliceFile,
    input: BufReader<File>,
    path: String,
    read: usize,
    /// File bytes past the header and the batches read so far.
    left: u64,
    hash: Fnv1a,
}

impl SliceReader {
    /// Opens a file and validates the header, including that the
    /// payload it claims, `slices × slice_len` scalars, has a byte count
    /// that fits both `u64` and `usize`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut input = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN];
        input
            .read_exact(&mut header)
            .map_err(|e| IoError::Format(format!("truncated header: {e}")))?;
        if header[0..4] != MAGIC {
            return Err(IoError::Format("bad magic".into()));
        }
        // xct-allow(no-panic): infallible — header slices have fixed lengths
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(IoError::Format(format!("unsupported version {version}")));
        }
        let kind = FileKind::from_tag(header[8])?;
        let precision = precision_from_tag(header[9])?;
        // xct-allow(no-panic): infallible — header slices have fixed lengths
        let slices = u64::from_le_bytes(header[10..18].try_into().expect("8 bytes"));
        // xct-allow(no-panic): infallible — header slices have fixed lengths
        let slice_len = u64::from_le_bytes(header[18..26].try_into().expect("8 bytes"));
        let width = precision.storage_bytes() as u64;
        let fits = slices
            .checked_mul(slice_len)
            .and_then(|n| n.checked_mul(width))
            .is_some_and(|n| usize::try_from(n).is_ok());
        let (true, Ok(slices), Ok(slice_len)) =
            (fits, usize::try_from(slices), usize::try_from(slice_len))
        else {
            return Err(IoError::Format(format!(
                "header claims {slices} slices × slice_len {slice_len} scalars of {width} \
                 bytes: the payload's byte count does not fit u64 and usize"
            )));
        };
        Ok(SliceReader {
            meta: SliceFile {
                kind,
                precision,
                slices,
                slice_len,
            },
            input,
            path: path.display().to_string(),
            read: 0,
            left: file_len.saturating_sub(HEADER_LEN as u64),
            hash: Fnv1a::new(),
        })
    }

    /// The path this reader was opened from (as given to
    /// [`open`](Self::open)).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// File metadata.
    pub fn meta(&self) -> SliceFile {
        self.meta
    }

    /// Slices not yet consumed.
    pub fn remaining(&self) -> usize {
        self.meta.slices - self.read
    }

    /// Checks that the file holds every unread slice its header claims —
    /// a [`IoError::ShortRead`] with both byte counts otherwise — without
    /// reading or allocating anything.
    pub fn check_length(&self) -> Result<(), IoError> {
        self.holds(self.bytes_of(self.remaining()))
    }

    /// The payload bytes of `slices` slices. Fits: `open` checked the
    /// whole payload's byte count.
    fn bytes_of(&self, slices: usize) -> usize {
        slices * self.meta.slice_len * self.meta.precision.storage_bytes()
    }

    /// A [`IoError::ShortRead`] unless `bytes` are left in the file.
    fn holds(&self, bytes: usize) -> Result<(), IoError> {
        if self.left < bytes as u64 {
            return Err(IoError::ShortRead {
                path: self.path.clone(),
                expected: bytes as u64,
                actual: self.left,
            });
        }
        Ok(())
    }

    /// Reads up to `max_slices` slices (an I/O batch, §III-A2). Returns
    /// `None` when the file is exhausted; call
    /// [`verify_checksum`](Self::verify_checksum) afterwards. A batch the
    /// file is too short to hold is a [`IoError::ShortRead`] before
    /// anything is allocated.
    pub fn read_batch(&mut self, max_slices: usize) -> Result<Option<Vec<f32>>, IoError> {
        assert!(max_slices > 0, "batch size must be nonzero");
        let take = max_slices.min(self.remaining());
        if take == 0 {
            return Ok(None);
        }
        let bytes = self.bytes_of(take);
        self.holds(bytes)?;
        let mut buf = vec![0u8; bytes];
        let mut got = 0;
        while got < bytes {
            match self.input.read(&mut buf[got..]) {
                Ok(0) => {
                    return Err(IoError::ShortRead {
                        path: self.path.clone(),
                        expected: bytes as u64,
                        actual: got as u64,
                    })
                }
                Ok(k) => got += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(IoError::Os(e)),
            }
        }
        self.hash.update(&buf);
        self.read += take;
        self.left -= bytes as u64;
        let mut out = vec![0.0f32; take * self.meta.slice_len];
        codec(self.meta.precision).1(&buf, &mut out);
        Ok(Some(out))
    }

    /// After consuming every slice, checks the trailer checksum.
    pub fn verify_checksum(mut self) -> Result<(), IoError> {
        if self.remaining() != 0 {
            return Err(IoError::Shape(format!(
                "{} slices left unread",
                self.remaining()
            )));
        }
        let mut trailer = [0u8; 8];
        self.input
            .read_exact(&mut trailer)
            .map_err(|e| IoError::Format(format!("missing checksum trailer: {e}")))?;
        let expected = u64::from_le_bytes(trailer);
        let actual = self.hash.finish();
        if expected != actual {
            return Err(IoError::ChecksumMismatch { expected, actual });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xct_io_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn sample_meta(precision: Precision) -> SliceFile {
        SliceFile {
            kind: FileKind::Sinogram,
            precision,
            slices: 5,
            slice_len: 64,
        }
    }

    fn sample_slice(s: usize) -> Vec<f32> {
        (0..64).map(|i| (s * 64 + i) as f32 * 0.25).collect()
    }

    #[test]
    fn a_half_file_of_edge_values_is_the_elementwise_encoding() {
        // ±0, subnormal halves, 65504, the 65520 overflow edge, ±∞ and
        // NaN, between ordinary values, over a length with a tail past
        // the 8-wide conversion body.
        let edges = [
            0.0f32,
            -0.0,
            5.960_464_5e-8,
            -2.980_232_2e-8,
            6.097_555e-5,
            65504.0,
            65520.0,
            -65519.996,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let slice: Vec<f32> = (0..37)
            .map(|i| edges.get(i / 3).copied().unwrap_or(i as f32 * -0.37))
            .collect();
        let meta = SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Half,
            slices: 1,
            slice_len: slice.len(),
        };
        let path = tmp("half_edges.xctd");
        let mut w = SliceWriter::create(&path, meta).unwrap();
        w.write_slice(&slice).unwrap();
        w.finish().unwrap();

        let halves: Vec<F16> = slice.iter().map(|&v| F16::from_f32(v)).collect();
        let payload: Vec<u8> = (halves.iter())
            .flat_map(|h| h.to_bits().to_le_bytes())
            .collect();
        let mut hash = Fnv1a::new();
        hash.update(&payload);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[HEADER_LEN..bytes.len() - 8], &payload[..]);
        assert_eq!(bytes[bytes.len() - 8..], hash.finish().to_le_bytes());

        let mut r = SliceReader::open(&path).unwrap();
        let back = r.read_batch(1).unwrap().unwrap();
        let widened: Vec<u32> = halves.iter().map(|h| h.to_f32().to_bits()).collect();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            widened
        );
        r.verify_checksum().unwrap();
    }

    #[test]
    fn roundtrip_all_precisions() {
        for precision in [Precision::Half, Precision::Single, Precision::Double] {
            let path = tmp(&format!("roundtrip_{}.xctd", precision.label()));
            let meta = sample_meta(precision);
            let mut w = SliceWriter::create(&path, meta).unwrap();
            for s in 0..5 {
                w.write_slice(&sample_slice(s)).unwrap();
            }
            w.finish().unwrap();

            let mut r = SliceReader::open(&path).unwrap();
            assert_eq!(r.meta(), meta);
            let all = r.read_batch(100).unwrap().unwrap();
            assert_eq!(all.len(), 5 * 64);
            for (s, chunk) in all.chunks(64).enumerate() {
                for (got, want) in chunk.iter().zip(sample_slice(s)) {
                    let tol = match precision {
                        Precision::Half | Precision::Mixed => want.abs() * 1e-3 + 1e-3,
                        _ => 0.0,
                    };
                    assert!((got - want).abs() <= tol, "{precision}: {got} vs {want}");
                }
            }
            r.verify_checksum().unwrap();
        }
    }

    #[test]
    fn batched_reads_equal_whole_read() {
        let path = tmp("batched.xctd");
        let meta = sample_meta(Precision::Single);
        let mut w = SliceWriter::create(&path, meta).unwrap();
        for s in 0..5 {
            w.write_slice(&sample_slice(s)).unwrap();
        }
        w.finish().unwrap();

        let mut whole = SliceReader::open(&path).unwrap();
        let all = whole.read_batch(usize::MAX - 1).unwrap().unwrap();
        whole.verify_checksum().unwrap();

        let mut batched = SliceReader::open(&path).unwrap();
        let mut collected = Vec::new();
        while let Some(batch) = batched.read_batch(2).unwrap() {
            collected.extend(batch);
        }
        batched.verify_checksum().unwrap();
        assert_eq!(collected, all);
    }

    #[test]
    fn half_precision_halves_the_file() {
        let p_half = tmp("size_half.xctd");
        let p_single = tmp("size_single.xctd");
        for (path, precision) in [(&p_half, Precision::Half), (&p_single, Precision::Single)] {
            let mut w = SliceWriter::create(path, sample_meta(precision)).unwrap();
            for s in 0..5 {
                w.write_slice(&sample_slice(s)).unwrap();
            }
            w.finish().unwrap();
        }
        let half = std::fs::metadata(&p_half).unwrap().len();
        let single = std::fs::metadata(&p_single).unwrap().len();
        let overhead = (HEADER_LEN + 8) as u64;
        assert_eq!((single - overhead), 2 * (half - overhead));
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("bad_magic.xctd");
        std::fs::write(&path, b"NOPE................................").unwrap();
        match SliceReader::open(&path) {
            Err(IoError::Format(m)) => assert!(m.contains("bad magic")),
            Err(other) => panic!("expected format error, got {other:?}"),
            Ok(_) => panic!("bad magic must not open"),
        }
    }

    #[test]
    fn truncated_payload_detected() {
        let path = tmp("truncated.xctd");
        let meta = sample_meta(Precision::Single);
        let mut w = SliceWriter::create(&path, meta).unwrap();
        for s in 0..5 {
            w.write_slice(&sample_slice(s)).unwrap();
        }
        w.finish().unwrap();
        // Chop the file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut r = SliceReader::open(&path).unwrap();
        let mut failed = false;
        loop {
            match r.read_batch(5) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(IoError::ShortRead {
                    path: p,
                    expected,
                    actual,
                }) => {
                    assert!(p.contains("truncated.xctd"), "{p}");
                    assert!(actual < expected, "{actual} vs {expected}");
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(failed, "truncation must be detected");
    }

    #[test]
    fn short_read_reports_path_and_byte_counts() {
        // Chop a known number of payload bytes off and check the error
        // carries the path and the exact expected/actual counts.
        let path = tmp("short_read.xctd");
        let meta = sample_meta(Precision::Single);
        let mut w = SliceWriter::create(&path, meta).unwrap();
        for s in 0..5 {
            w.write_slice(&sample_slice(s)).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Keep the header plus half of the first slice's payload.
        let slice_bytes = meta.slice_len * meta.precision.storage_bytes();
        let keep = HEADER_LEN + slice_bytes / 2;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let mut r = SliceReader::open(&path).unwrap();
        match r.read_batch(1) {
            Err(IoError::ShortRead {
                path: p,
                expected,
                actual,
            }) => {
                assert!(p.contains("short_read.xctd"), "{p}");
                assert_eq!(expected, slice_bytes as u64);
                assert_eq!(actual, (slice_bytes / 2) as u64);
                let msg = IoError::ShortRead {
                    path: p,
                    expected,
                    actual,
                }
                .to_string();
                assert!(msg.contains("short_read.xctd"), "{msg}");
                assert!(msg.contains(&expected.to_string()), "{msg}");
                assert!(msg.contains(&actual.to_string()), "{msg}");
            }
            other => panic!("expected ShortRead, got {other:?}"),
        }
    }

    /// A header-only file of `slices × slice_len` scalars at
    /// `precision`, followed by `payload` bytes.
    fn hostile_header(
        name: &str,
        precision: Precision,
        slices: u64,
        slice_len: u64,
        payload: usize,
    ) -> std::path::PathBuf {
        let path = tmp(name);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(FileKind::Sinogram.tag());
        bytes.push(precision.storage_bytes() as u8);
        bytes.extend_from_slice(&slices.to_le_bytes());
        bytes.extend_from_slice(&slice_len.to_le_bytes());
        bytes.resize(HEADER_LEN + payload, 0);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn a_header_whose_payload_overflows_is_refused_at_open() {
        // 1 × 2⁶³ half-precision scalars: 2⁶⁴ bytes.
        let path = hostile_header("overflow.xctd", Precision::Half, 1, 1 << 63, 0);
        match SliceReader::open(&path) {
            Err(IoError::Format(m)) => {
                assert!(m.contains("slices") && m.contains("slice_len"), "{m}");
                assert!(m.contains(&(1u64 << 63).to_string()), "{m}");
            }
            other => panic!("expected Format, got {:?}", other.map(|r| r.meta())),
        }
    }

    #[test]
    fn a_batch_longer_than_the_file_is_a_short_read_without_allocating_it() {
        // 34 bytes claiming 1 × 2⁴⁰ single-precision scalars (4 TiB).
        let path = hostile_header("huge.xctd", Precision::Single, 1, 1 << 40, 8);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 34);
        let mut r = SliceReader::open(&path).unwrap();
        match r.read_batch(1) {
            Err(IoError::ShortRead {
                expected, actual, ..
            }) => assert_eq!((expected, actual), (1 << 42, 8)),
            other => panic!("expected ShortRead, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let path = tmp("corrupt.xctd");
        let meta = sample_meta(Precision::Single);
        let mut w = SliceWriter::create(&path, meta).unwrap();
        for s in 0..5 {
            w.write_slice(&sample_slice(s)).unwrap();
        }
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = SliceReader::open(&path).unwrap();
        while r.read_batch(5).unwrap().is_some() {}
        match r.verify_checksum() {
            Err(IoError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn writer_enforces_shape() {
        let path = tmp("shape.xctd");
        let mut w = SliceWriter::create(&path, sample_meta(Precision::Single)).unwrap();
        assert!(matches!(w.write_slice(&[1.0; 3]), Err(IoError::Shape(_))));
        for s in 0..5 {
            w.write_slice(&sample_slice(s)).unwrap();
        }
        assert!(matches!(
            w.write_slice(&sample_slice(0)),
            Err(IoError::Shape(_))
        ));
        w.finish().unwrap();
    }

    #[test]
    fn unfinished_writer_is_an_error() {
        let path = tmp("unfinished.xctd");
        let mut w = SliceWriter::create(&path, sample_meta(Precision::Single)).unwrap();
        w.write_slice(&sample_slice(0)).unwrap();
        assert!(matches!(w.finish(), Err(IoError::Shape(_))));
    }

    #[test]
    fn payload_bytes_match_table2_arithmetic() {
        let meta = SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Single,
            slices: 1792,
            slice_len: 2048 * 2048,
        };
        // The Shale volume: 1792 × 2048² × 4 B ≈ 30 GB (the write half of
        // Table II's 52.1 GB I/O).
        assert_eq!(meta.payload_bytes(), 1792 * 2048 * 2048 * 4);
    }
}
