//! Tab-separated expression-matrix I/O.
//!
//! The Zenodo data sets the paper uses (yeast: 10.5281/zenodo.3355524,
//! A. thaliana: 10.5281/zenodo.4672797) are plain numeric tables with a
//! header row of condition names and a leading column of gene names —
//! the format read and written here. If a user has the real data, it
//! can be dropped in directly; our experiments use the synthetic
//! generator (see [`crate::synthetic`]) as documented in DESIGN.md.

use crate::dataset::Dataset;
use crate::matrix::Matrix;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Typed errors raised while reading an expression table. Each
/// variant carries the coordinates a user needs to fix the input; the
/// CLI surfaces them verbatim as clean nonzero exits.
#[derive(Debug)]
pub enum DataError {
    /// The file could not be opened (missing, permissions, a
    /// directory, ...). Carries the path that failed.
    Unreadable {
        /// The path that could not be opened.
        path: std::path::PathBuf,
        /// The underlying I/O failure.
        source: io::Error,
    },
    /// An I/O failure while streaming an already-open table.
    Io(io::Error),
    /// A cell parsed as a float but is NaN or infinite — expression
    /// values must be finite for the Gaussian sufficient statistics.
    NonFinite {
        /// 1-based line number of the offending row.
        line: usize,
        /// 1-based data-column index (excluding the gene-name column).
        column: usize,
        /// The offending value as written in the file.
        value: String,
    },
    /// A cell that is not a number at all.
    BadNumber {
        /// 1-based line number of the offending row.
        line: usize,
        /// The offending field as written in the file.
        field: String,
        /// The parser's description of the failure.
        message: String,
    },
    /// A data row whose width differs from the header's.
    RaggedRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// Number of values the header promises.
        expected: usize,
        /// Number of values the row actually has.
        found: usize,
    },
    /// A header row with no observation names.
    EmptyHeader {
        /// 1-based line number of the header row.
        line: usize,
    },
    /// The table has no header (and therefore no data) at all.
    EmptyMatrix,
    /// A synthetic data set shape the generator cannot plant module
    /// structure in: it needs at least two variables and two
    /// observations.
    SyntheticShape {
        /// Requested number of variables.
        n_vars: usize,
        /// Requested number of observations.
        n_obs: usize,
    },
}

/// Backward-compatible name for [`DataError`].
pub type ReadError = DataError;

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Unreadable { path, source } => {
                write!(f, "cannot open {}: {source}", path.display())
            }
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::NonFinite {
                line,
                column,
                value,
            } => write!(
                f,
                "line {line}, column {column}: non-finite value {value:?} \
                 (expression values must be finite)"
            ),
            DataError::BadNumber {
                line,
                field,
                message,
            } => write!(f, "line {line}: bad numeric value {field:?}: {message}"),
            DataError::RaggedRow {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: ragged row — expected {expected} values, found {found}"
            ),
            DataError::EmptyHeader { line } => {
                write!(f, "line {line}: header row has no observation names")
            }
            DataError::EmptyMatrix => write!(f, "empty table: no header or data rows"),
            DataError::SyntheticShape { n_vars, n_obs } => write!(
                f,
                "synthetic data set {n_vars}x{n_obs}: needs at least 2 variables \
                 and 2 observations"
            ),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Unreadable { source, .. } => Some(source),
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DataError {
    fn from(e: io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Read a TSV expression table from a reader.
///
/// Expected shape:
/// ```text
/// <corner>\t<obs name>\t<obs name>...
/// <gene>\t<value>\t<value>...
/// ```
/// Empty lines and lines starting with `#` are ignored.
pub fn read_tsv<R: Read>(reader: R) -> Result<Dataset, DataError> {
    let reader = BufReader::new(reader);
    let mut obs_names: Option<Vec<String>> = None;
    let mut var_names: Vec<String> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut width = 0usize;

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split('\t');
        let first = fields.next().unwrap_or_default();
        if obs_names.is_none() {
            let names: Vec<String> = fields.map(|s| s.to_string()).collect();
            if names.is_empty() {
                return Err(DataError::EmptyHeader { line: lineno });
            }
            width = names.len();
            obs_names = Some(names);
            continue;
        }
        var_names.push(first.to_string());
        let mut count = 0usize;
        for field in fields {
            let v: f64 = field.trim().parse().map_err(|e: std::num::ParseFloatError| {
                DataError::BadNumber {
                    line: lineno,
                    field: field.to_string(),
                    message: e.to_string(),
                }
            })?;
            if !v.is_finite() {
                return Err(DataError::NonFinite {
                    line: lineno,
                    column: count + 1,
                    value: field.trim().to_string(),
                });
            }
            values.push(v);
            count += 1;
        }
        if count != width {
            return Err(DataError::RaggedRow {
                line: lineno,
                expected: width,
                found: count,
            });
        }
    }

    let obs_names = obs_names.ok_or(DataError::EmptyMatrix)?;
    let matrix = Matrix::from_vec(var_names.len(), width, values);
    Ok(Dataset::new(matrix, Some(var_names), Some(obs_names)))
}

/// Read a TSV expression table from a file path. An unopenable path
/// yields [`DataError::Unreadable`] carrying the path.
pub fn read_tsv_file<P: AsRef<Path>>(path: P) -> Result<Dataset, DataError> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|source| DataError::Unreadable {
        path: path.to_path_buf(),
        source,
    })?;
    read_tsv(file)
}

/// Write a data set as a TSV expression table.
pub fn write_tsv<W: Write>(dataset: &Dataset, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    write!(w, "gene")?;
    for name in &dataset.obs_names {
        write!(w, "\t{name}")?;
    }
    writeln!(w)?;
    for (i, name) in dataset.var_names.iter().enumerate() {
        write!(w, "{name}")?;
        for v in dataset.values(i) {
            write!(w, "\t{v}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Write a data set as a TSV expression table to a file path.
pub fn write_tsv_file<P: AsRef<Path>>(dataset: &Dataset, path: P) -> io::Result<()> {
    write_tsv(dataset, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "gene\tc1\tc2\tc3\n# a comment\ng1\t1.0\t2.0\t3.0\ng2\t-1.5\t0\t4e-2\n";

    #[test]
    fn roundtrip() {
        let d = read_tsv(SAMPLE.as_bytes()).unwrap();
        assert_eq!(d.n_vars(), 2);
        assert_eq!(d.n_obs(), 3);
        assert_eq!(d.var_names, vec!["g1", "g2"]);
        assert_eq!(d.obs_names, vec!["c1", "c2", "c3"]);
        assert_eq!(d.values(1), &[-1.5, 0.0, 0.04]);

        let mut buf = Vec::new();
        write_tsv(&d, &mut buf).unwrap();
        let d2 = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = read_tsv("g\tc1\tc2\ng1\t1.0\n".as_bytes()).unwrap_err();
        match err {
            DataError::RaggedRow {
                line,
                expected,
                found,
            } => {
                assert_eq!((line, expected, found), (2, 2, 1));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("expected 2 values, found 1"));
    }

    #[test]
    fn rejects_bad_numbers() {
        let err = read_tsv("g\tc1\ng1\tbanana\n".as_bytes()).unwrap_err();
        match &err {
            DataError::BadNumber { line, field, .. } => {
                assert_eq!(*line, 2);
                assert_eq!(field, "banana");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_cells() {
        for bad in ["NaN", "nan", "inf", "-inf"] {
            let input = format!("g\tc1\tc2\ng1\t1.0\t{bad}\n");
            let err = read_tsv(input.as_bytes()).unwrap_err();
            match &err {
                DataError::NonFinite { line, column, value } => {
                    assert_eq!((*line, *column), (2, 2), "{bad}");
                    assert_eq!(value, bad);
                }
                other => panic!("{bad}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(
            read_tsv("".as_bytes()).unwrap_err(),
            DataError::EmptyMatrix
        ));
        assert!(matches!(
            read_tsv("\n\n# only comments\n".as_bytes()).unwrap_err(),
            DataError::EmptyMatrix
        ));
    }

    #[test]
    fn unreadable_file_names_the_path() {
        let err = read_tsv_file("/definitely/not/here.tsv").unwrap_err();
        match &err {
            DataError::Unreadable { path, .. } => {
                assert_eq!(path.to_str().unwrap(), "/definitely/not/here.tsv");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("/definitely/not/here.tsv"));
    }

    #[test]
    fn skips_blank_lines() {
        let d = read_tsv("g\tc1\n\ng1\t1\n\n".as_bytes()).unwrap();
        assert_eq!(d.n_vars(), 1);
    }

    #[test]
    fn crlf_tolerated() {
        let d = read_tsv("g\tc1\r\ng1\t5\r\n".as_bytes()).unwrap();
        assert_eq!(d.values(0), &[5.0]);
    }

    #[test]
    fn file_roundtrip() {
        let d = read_tsv(SAMPLE.as_bytes()).unwrap();
        let path = std::env::temp_dir().join("mn_data_io_test.tsv");
        write_tsv_file(&d, &path).unwrap();
        let d2 = read_tsv_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(d, d2);
    }
}
