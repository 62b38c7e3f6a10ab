//! Encoders/decoders for the domain types a checkpoint carries.
//!
//! Decoding validates structural invariants (monotone CSR index
//! pointers, in-range column indices, matching shapes) *before*
//! constructing the domain types, because their constructors enforce
//! those invariants with asserts — a corrupt-but-CRC-valid payload must
//! come back as [`MgError::Corrupt`], never a panic.

use crate::format::{Dec, Enc};
use adamgnn_core::{FrozenLevel, FrozenStructure};
use mg_graph::{NormAdj, Topology};
use mg_tensor::{Csr, Matrix, MgError, ParamSnapshot};
use std::rc::Rc;

pub fn enc_matrix(e: &mut Enc, m: &Matrix) {
    e.usize(m.rows());
    e.usize(m.cols());
    for &x in m.data() {
        e.f64(x);
    }
}

pub fn dec_matrix(d: &mut Dec) -> Result<Matrix, MgError> {
    let rows = d.usize()?;
    let cols = d.usize()?;
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| d.corrupt(format!("matrix shape {rows}x{cols} overflows")))?;
    if d.remaining() < len.saturating_mul(8) {
        return Err(d.corrupt(format!(
            "matrix {rows}x{cols} needs {} bytes, {} remain",
            len * 8,
            d.remaining()
        )));
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(d.f64()?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

pub fn enc_param(e: &mut Enc, p: &ParamSnapshot) {
    e.str(&p.name);
    enc_matrix(e, &p.value);
    enc_matrix(e, &p.m);
    enc_matrix(e, &p.v);
}

pub fn dec_param(d: &mut Dec) -> Result<ParamSnapshot, MgError> {
    let name = d.str()?;
    let value = dec_matrix(d)?;
    let m = dec_matrix(d)?;
    let v = dec_matrix(d)?;
    if m.shape() != value.shape() || v.shape() != value.shape() {
        return Err(d.corrupt(format!(
            "parameter '{name}': moment shapes {:?}/{:?} disagree with value {:?}",
            m.shape(),
            v.shape(),
            value.shape()
        )));
    }
    Ok(ParamSnapshot { name, value, m, v })
}

pub fn enc_csr(e: &mut Enc, c: &Csr) {
    e.usize(c.rows());
    e.usize(c.cols());
    e.usize(c.nnz());
    for &p in c.indptr() {
        e.usize(p);
    }
    for &i in c.indices() {
        e.u32(i);
    }
}

pub fn dec_csr(d: &mut Dec) -> Result<Csr, MgError> {
    let rows = d.usize()?;
    let cols = d.usize()?;
    let nnz = d.usize()?;
    if d.remaining() < (rows + 1).saturating_mul(8).saturating_add(nnz * 4) {
        return Err(d.corrupt(format!(
            "CSR {rows}x{cols} with {nnz} nnz larger than remaining payload"
        )));
    }
    let mut indptr = Vec::with_capacity(rows + 1);
    for _ in 0..=rows {
        indptr.push(d.usize()?);
    }
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(d.u32()?);
    }
    // validate the invariants Csr::from_parts would assert on
    if indptr.first() != Some(&0) || *indptr.last().unwrap() != nnz {
        return Err(d.corrupt("CSR indptr endpoints disagree with nnz"));
    }
    if indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(d.corrupt("CSR indptr is not monotone"));
    }
    if indices.iter().any(|&i| i as usize >= cols) {
        return Err(d.corrupt("CSR column index out of range"));
    }
    Ok(Csr::from_parts(rows, cols, indptr, indices))
}

pub fn enc_topology(e: &mut Enc, t: &Topology) {
    e.usize(t.n());
    e.usize(t.num_edges());
    for (u, v) in t.edges() {
        e.u32(u);
        e.u32(v);
    }
}

pub fn dec_topology(d: &mut Dec) -> Result<Topology, MgError> {
    let n = d.usize()?;
    let m = d.len_of(8)?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = d.u32()?;
        let v = d.u32()?;
        if u as usize >= n || v as usize >= n {
            return Err(d.corrupt(format!("edge ({u},{v}) out of range for {n} nodes")));
        }
        edges.push((u, v));
    }
    Ok(Topology::from_edges(n, &edges))
}

pub fn enc_norm_adj(e: &mut Enc, a: &NormAdj) {
    enc_csr(e, &a.csr);
    e.usize(a.values.len());
    for &x in &a.values {
        e.f64(x);
    }
}

pub fn dec_norm_adj(d: &mut Dec) -> Result<NormAdj, MgError> {
    let csr = dec_csr(d)?;
    let len = d.len_of(8)?;
    if len != csr.nnz() {
        return Err(d.corrupt(format!(
            "NormAdj values length {len} disagrees with nnz {}",
            csr.nnz()
        )));
    }
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(d.f64()?);
    }
    Ok(NormAdj {
        csr: Rc::new(csr),
        values,
    })
}

pub fn enc_structure(e: &mut Enc, s: &Option<FrozenStructure>) {
    match s {
        None => e.bool(false),
        Some(fs) => {
            e.bool(true);
            e.usize(fs.levels.len());
            for level in &fs.levels {
                e.usize(level.egos.len());
                for &ego in &level.egos {
                    e.usize(ego);
                }
                enc_norm_adj(e, &level.norm);
                enc_topology(e, &level.next_topo);
            }
        }
    }
}

pub fn dec_structure(d: &mut Dec) -> Result<Option<FrozenStructure>, MgError> {
    if !d.bool()? {
        return Ok(None);
    }
    let n_levels = d.len_of(1)?;
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let n_egos = d.len_of(8)?;
        let mut egos = Vec::with_capacity(n_egos);
        for _ in 0..n_egos {
            egos.push(d.usize()?);
        }
        let norm = dec_norm_adj(d)?;
        let next_topo = Rc::new(dec_topology(d)?);
        levels.push(FrozenLevel {
            egos,
            norm,
            next_topo,
        });
    }
    Ok(Some(FrozenStructure { levels }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Dec, Enc};

    fn roundtrip<T>(
        value: &T,
        enc: impl Fn(&mut Enc, &T),
        dec: impl Fn(&mut Dec) -> Result<T, MgError>,
    ) -> T {
        let mut e = Enc::new();
        enc(&mut e, value);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        let out = dec(&mut d).expect("decode");
        d.finish().expect("fully consumed");
        out
    }

    #[test]
    fn matrix_roundtrips_bit_exact() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -0.0, f64::NAN, 1e-300, 3.5, f64::INFINITY]);
        let back = roundtrip(&m, enc_matrix, dec_matrix);
        assert_eq!(back.shape(), (2, 3));
        for (a, b) in m.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn csr_roundtrips_and_rejects_corruption() {
        let c = Csr::from_coo(3, 4, &[(0, 1), (0, 3), (2, 0)]);
        let back = roundtrip(&c, enc_csr, dec_csr);
        assert_eq!(back.indptr(), c.indptr());
        assert_eq!(back.indices(), c.indices());

        // out-of-range column index must decode to Corrupt, not an assert
        let mut e = Enc::new();
        enc_csr(&mut e, &c);
        let mut bytes = e.into_bytes();
        // last 4 bytes are the final u32 column index; make it huge
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut d = Dec::new(&bytes, "structure");
        assert!(matches!(dec_csr(&mut d), Err(MgError::Corrupt { .. })));
    }

    #[test]
    fn topology_roundtrips() {
        let t = Topology::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let back = roundtrip(&t, enc_topology, dec_topology);
        assert_eq!(back.n(), 5);
        assert!(back.edges().eq(t.edges()));
    }

    #[test]
    fn structure_roundtrips() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let norm = mg_graph::gcn_norm(&topo);
        let fs = Some(FrozenStructure {
            levels: vec![FrozenLevel {
                egos: vec![0, 2],
                norm: norm.clone(),
                next_topo: Rc::new(Topology::from_edges(2, &[(0, 1)])),
            }],
        });
        let back = roundtrip(&fs, enc_structure, dec_structure).expect("some");
        assert_eq!(back.levels.len(), 1);
        assert_eq!(back.levels[0].egos, vec![0, 2]);
        assert_eq!(back.levels[0].norm.values, norm.values);
        assert_eq!(back.levels[0].next_topo.n(), 2);
        let none = roundtrip(&None, enc_structure, dec_structure);
        assert!(none.is_none());
    }

    #[test]
    fn param_decoder_rejects_moment_shape_mismatch() {
        let mut e = Enc::new();
        e.str("w");
        enc_matrix(&mut e, &Matrix::zeros(2, 2));
        enc_matrix(&mut e, &Matrix::zeros(2, 3)); // m: wrong shape
        enc_matrix(&mut e, &Matrix::zeros(2, 2));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "params");
        assert!(matches!(dec_param(&mut d), Err(MgError::Corrupt { .. })));
    }
}
