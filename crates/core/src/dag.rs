//! Operator DAGs: one solver iteration expressed as a graph of
//! linear-algebra operators over a single bound matrix.
//!
//! The hand-fused kernels cover exactly the Equation-1 chain. The DAG
//! layer generalizes: a solver describes its iteration as operators
//! (SpMV/dense MV, transpose-MV, element-wise multiply/scale/axpy, dot),
//! and the fusion compiler ([`crate::fusion`]) enumerates which chains
//! collapse into single kernels. Vector dimensions are expressed relative
//! to the bound matrix ([`Dim::Rows`] / [`Dim::Cols`]), which makes shape
//! inference a lookup instead of a constraint system.
//!
//! Scalars are either literals or named parameters bound at execution
//! time ([`ScalarRef`]); a plan therefore depends only on the DAG's
//! *structure*, and one memoized plan serves every iteration of a solver
//! whose scalar coefficients change step to step.

use crate::pattern::PatternSpec;

/// Index of a node within its [`Dag`] (topological by construction).
pub type NodeId = usize;

/// Vector dimension relative to the bound matrix `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Length `X.rows` (the `X y` product space).
    Rows,
    /// Length `X.cols` (the `X^T u` product space).
    Cols,
}

impl Dim {
    fn tag(self) -> u8 {
        match self {
            Dim::Rows => 0,
            Dim::Cols => 1,
        }
    }
}

/// A scalar coefficient: a literal baked into the DAG, or a named
/// parameter supplied per execution (plan structure is value-independent
/// either way — the fused kernels take scalars as arguments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarRef {
    Lit(f64),
    Param(&'static str),
}

/// One operator node. `a` is the node's *primary* operand — the edge
/// fusion chains along; side operands (`b`, the matrix) always stream
/// from memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// External vector bound by name at execution time.
    Input { name: &'static str, dim: Dim },
    /// `X y` (cols → rows).
    Mv { y: NodeId },
    /// `X^T u` (rows → cols).
    Tmv { u: NodeId },
    /// `a ⊙ b` element-wise.
    EwMul { a: NodeId, b: NodeId },
    /// `alpha * a`.
    Scale { a: NodeId, alpha: ScalarRef },
    /// `a + beta * b`.
    Axpy {
        a: NodeId,
        beta: ScalarRef,
        b: NodeId,
    },
    /// Host-visible scalar `a · b`.
    Dot { a: NodeId, b: NodeId },
}

impl Op {
    /// Short stable label used in plan dumps and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Mv { .. } => "mv",
            Op::Tmv { .. } => "tmv",
            Op::EwMul { .. } => "ewmul",
            Op::Scale { .. } => "scale",
            Op::Axpy { .. } => "axpy",
            Op::Dot { .. } => "dot",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Op::Input { .. } => 1,
            Op::Mv { .. } => 2,
            Op::Tmv { .. } => 3,
            Op::EwMul { .. } => 4,
            Op::Scale { .. } => 5,
            Op::Axpy { .. } => 6,
            Op::Dot { .. } => 7,
        }
    }
}

/// Incremental DAG constructor. Shape errors (feeding a rows-dim vector
/// to `Mv`, mixing dims in `EwMul`) are programmer errors and assert.
#[derive(Debug, Default)]
pub struct DagBuilder {
    nodes: Vec<Op>,
    dims: Vec<Option<Dim>>,
}

impl DagBuilder {
    pub fn new() -> Self {
        DagBuilder::default()
    }

    fn push(&mut self, op: Op, dim: Option<Dim>) -> NodeId {
        self.nodes.push(op);
        self.dims.push(dim);
        self.nodes.len() - 1
    }

    // A scalar where a vector belongs is builder misuse, checked like the
    // dimension asserts of the operators below.
    #[allow(clippy::panic)]
    fn vdim(&self, n: NodeId) -> Dim {
        self.dims[n].unwrap_or_else(|| panic!("node {n} is a scalar, not a vector"))
    }

    pub fn input(&mut self, name: &'static str, dim: Dim) -> NodeId {
        self.push(Op::Input { name, dim }, Some(dim))
    }

    pub fn mv(&mut self, y: NodeId) -> NodeId {
        assert_eq!(self.vdim(y), Dim::Cols, "Mv consumes a cols-dim vector");
        self.push(Op::Mv { y }, Some(Dim::Rows))
    }

    pub fn tmv(&mut self, u: NodeId) -> NodeId {
        assert_eq!(self.vdim(u), Dim::Rows, "Tmv consumes a rows-dim vector");
        self.push(Op::Tmv { u }, Some(Dim::Cols))
    }

    pub fn ewmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let d = self.vdim(a);
        assert_eq!(d, self.vdim(b), "EwMul operands must share a dimension");
        self.push(Op::EwMul { a, b }, Some(d))
    }

    pub fn scale(&mut self, a: NodeId, alpha: ScalarRef) -> NodeId {
        let d = self.vdim(a);
        self.push(Op::Scale { a, alpha }, Some(d))
    }

    pub fn axpy(&mut self, a: NodeId, beta: ScalarRef, b: NodeId) -> NodeId {
        let d = self.vdim(a);
        assert_eq!(d, self.vdim(b), "Axpy operands must share a dimension");
        self.push(Op::Axpy { a, beta, b }, Some(d))
    }

    pub fn dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(
            self.vdim(a),
            self.vdim(b),
            "Dot operands must share a dimension"
        );
        self.push(Op::Dot { a, b }, None)
    }

    /// Seal the DAG. `output` must be a computed vector node.
    pub fn finish(self, output: NodeId) -> Dag {
        assert!(output < self.nodes.len(), "output node out of range");
        assert!(
            !matches!(self.nodes[output], Op::Input { .. }),
            "output must be a computed node"
        );
        assert!(
            self.dims[output].is_some(),
            "output must be a vector node, not a dot scalar"
        );
        Dag {
            nodes: self.nodes,
            dims: self.dims,
            output,
        }
    }
}

/// An immutable operator DAG (nodes in topological order) with one
/// designated vector output. Dot nodes are side outputs read back as
/// host scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct Dag {
    nodes: Vec<Op>,
    dims: Vec<Option<Dim>>,
    output: NodeId,
}

impl Dag {
    pub fn nodes(&self) -> &[Op] {
        &self.nodes
    }

    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Vector dimension of `n`, or `None` for scalar (dot) nodes.
    pub fn dim(&self, n: NodeId) -> Option<Dim> {
        self.dims[n]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many nodes consume each node (the fusion chains require
    /// single-consumer edges). The designated output gets one extra
    /// phantom consumer so it is never treated as a dead intermediate.
    pub fn consumer_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for op in &self.nodes {
            match *op {
                Op::Input { .. } => {}
                Op::Mv { y } => counts[y] += 1,
                Op::Tmv { u } => counts[u] += 1,
                Op::Scale { a, .. } => counts[a] += 1,
                Op::EwMul { a, b } | Op::Dot { a, b } => {
                    counts[a] += 1;
                    counts[b] += 1;
                }
                Op::Axpy { a, b, .. } => {
                    counts[a] += 1;
                    counts[b] += 1;
                }
            }
        }
        counts[self.output] += 1;
        counts
    }

    /// Structural FNV-1a fingerprint: op kinds, edges, dims, scalar
    /// literals (bit pattern) and parameter names, plus the output node.
    /// This is the DAG half of the plan-cache key.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn eat_id(h: &mut u64, id: NodeId) {
            eat(h, &(id as u64).to_le_bytes());
        }
        fn eat_scalar(h: &mut u64, s: &ScalarRef) {
            match s {
                ScalarRef::Lit(v) => {
                    eat(h, &[0u8]);
                    eat(h, &v.to_bits().to_le_bytes());
                }
                ScalarRef::Param(name) => {
                    eat(h, &[1u8]);
                    eat(h, name.as_bytes());
                }
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for op in &self.nodes {
            eat(&mut h, &[op.tag()]);
            match *op {
                Op::Input { name, dim } => {
                    eat(&mut h, &[dim.tag()]);
                    eat(&mut h, name.as_bytes());
                }
                Op::Mv { y } => eat_id(&mut h, y),
                Op::Tmv { u } => eat_id(&mut h, u),
                Op::EwMul { a, b } | Op::Dot { a, b } => {
                    eat_id(&mut h, a);
                    eat_id(&mut h, b);
                }
                Op::Scale { a, alpha } => {
                    eat_id(&mut h, a);
                    eat_scalar(&mut h, &alpha);
                }
                Op::Axpy { a, beta, b } => {
                    eat_id(&mut h, a);
                    eat_scalar(&mut h, &beta);
                    eat_id(&mut h, b);
                }
            }
        }
        eat_id(&mut h, self.output);
        h
    }

    /// The Equation-1 chain `w = alpha * X^T (v ⊙ (X y)) + beta * z` as a
    /// DAG, with the same optional stages as [`PatternSpec`]. Input names:
    /// `"y"` (cols), `"v"` (rows, when `with_v`), `"z"` (cols, when
    /// `with_z`). A unit `alpha` emits no scale node, matching the named
    /// Table-1 instantiations.
    pub fn equation1(spec: PatternSpec) -> Dag {
        let mut b = DagBuilder::new();
        let y = b.input("y", Dim::Cols);
        let mut t = b.mv(y);
        if spec.with_v {
            let v = b.input("v", Dim::Rows);
            t = b.ewmul(t, v);
        }
        let mut w = b.tmv(t);
        if spec.alpha != 1.0 {
            w = b.scale(w, ScalarRef::Lit(spec.alpha));
        }
        if spec.with_z {
            let z = b.input("z", Dim::Cols);
            w = b.axpy(w, ScalarRef::Lit(spec.beta), z);
        }
        b.finish(w)
    }

    /// `w = alpha * X^T y` — the short-circuit XtY instantiation. Input
    /// name: `"y"` (rows).
    pub fn xt_y(alpha: f64) -> Dag {
        let mut b = DagBuilder::new();
        let y = b.input("y", Dim::Rows);
        let mut w = b.tmv(y);
        if alpha != 1.0 {
            w = b.scale(w, ScalarRef::Lit(alpha));
        }
        b.finish(w)
    }

    /// One PageRank power iteration over a square link matrix `L`
    /// (`L[i][j] = 1` when page `i` links to page `j`):
    ///
    /// ```text
    /// r' = d * L^T (r ⊙ inv_deg) + teleport * ones
    /// ```
    ///
    /// Inputs: `"r"` (rows), `"inv_deg"` (rows, reciprocal out-degrees),
    /// `"ones"` (cols). Scalar parameters: `"d"` (damping) and
    /// `"teleport"` (`(1 - d) / n`), bound per execution.
    pub fn pagerank() -> Dag {
        let mut b = DagBuilder::new();
        let r = b.input("r", Dim::Rows);
        let inv_deg = b.input("inv_deg", Dim::Rows);
        let ones = b.input("ones", Dim::Cols);
        let t = b.ewmul(r, inv_deg);
        let t = b.tmv(t);
        let t = b.scale(t, ScalarRef::Param("d"));
        let w = b.axpy(t, ScalarRef::Param("teleport"), ones);
        b.finish(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation1_shapes_follow_spec() {
        let full = Dag::equation1(PatternSpec::full(1.5, -0.5));
        // y, mv, v, ewmul, tmv, scale, z, axpy
        assert_eq!(full.len(), 8);
        assert_eq!(full.dim(full.output()), Some(Dim::Cols));

        let bare = Dag::equation1(PatternSpec::xtxy());
        // y, mv, tmv — alpha == 1 emits no scale node.
        assert_eq!(bare.len(), 3);
        assert!(matches!(bare.nodes()[bare.output()], Op::Tmv { .. }));
    }

    #[test]
    fn fingerprint_is_structural_and_value_sensitive() {
        let a = Dag::equation1(PatternSpec::xtxy_plus_bz(0.001));
        let b = Dag::equation1(PatternSpec::xtxy_plus_bz(0.001));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Dag::equation1(PatternSpec::xtxy_plus_bz(0.002));
        assert_ne!(a.fingerprint(), c.fingerprint(), "literal bits are hashed");
        assert_ne!(
            Dag::xt_y(1.0).fingerprint(),
            Dag::xt_y(-1.0).fingerprint(),
            "scale presence is structural"
        );
        assert_ne!(a.fingerprint(), Dag::pagerank().fingerprint());
    }

    #[test]
    fn param_scalars_do_not_depend_on_bound_values() {
        // Same structure, parameters unbound: fingerprints must agree so
        // one cached plan serves every iteration.
        assert_eq!(Dag::pagerank().fingerprint(), Dag::pagerank().fingerprint());
    }

    #[test]
    fn consumer_counts_mark_single_use_chains() {
        let dag = Dag::equation1(PatternSpec::full(2.0, 0.5));
        let counts = dag.consumer_counts();
        // Every interior node of the Eq-1 chain has exactly one consumer.
        for (i, op) in dag.nodes().iter().enumerate() {
            if !matches!(op, Op::Input { .. }) {
                assert_eq!(counts[i], 1, "node {i} ({}) fan-out", op.label());
            }
        }
    }

    #[test]
    #[should_panic(expected = "Mv consumes a cols-dim vector")]
    fn mv_rejects_rows_dim_input() {
        let mut b = DagBuilder::new();
        let r = b.input("r", Dim::Rows);
        b.mv(r);
    }

    #[test]
    #[should_panic(expected = "output must be a computed node")]
    fn output_cannot_be_an_input() {
        let mut b = DagBuilder::new();
        let r = b.input("r", Dim::Rows);
        b.finish(r);
    }
}
