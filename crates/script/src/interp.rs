//! The mini-DML interpreter.
//!
//! Numeric semantics follow R/DML for the supported subset: scalars
//! broadcast over vectors, `%*%` multiplies matrices and vectors, `t(p)
//! %*% q` of two vectors is a dot product. Three execution engines share
//! the same semantics and differ only in what the hot operators cost:
//!
//! * [`EngineMode::FusedGpu`] — each expression's matrix-vector work is
//!   lowered to a [`fusedml_core::Dag`] over one matrix and run by the DAG
//!   fusion compiler, which selects the fused kernels (§4.4's
//!   "transparently selects") and caches the plan per DAG structure.
//! * [`EngineMode::BaselineGpu`] — no fusion; every matrix product is an
//!   operator-level kernel (cuSPARSE/cuBLAS composition).
//! * [`EngineMode::HostOnly`] — reference CPU execution, no device costs.

use crate::ast::{BinOp, Expr, Program, Stmt, UnaryOp};
use crate::parser::{parse, ParseError};
use crate::value::{HostMatrix, MatrixVal, Value};
use fusedml_blas::{BaselineEngine, Flavor, GpuCsr, GpuDense};
use fusedml_core::{DagBuilder, DagExecutor, DagInputs, DagMatrix, Dim, NodeId, ScalarRef};
use fusedml_gpu_sim::{DeviceError, Gpu};
use fusedml_matrix::{reference, CsrMatrix, DenseMatrix};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// How the interpreter executes matrix operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Matrix-vector work runs as operator DAGs through the fusion
    /// compiler, which fuses every Equation-1 chain it finds.
    FusedGpu,
    BaselineGpu,
    HostOnly,
}

/// Execution statistics of one script run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Simulated device milliseconds (0 in host-only mode).
    pub sim_ms: f64,
    /// Device kernel launches.
    pub launches: usize,
    /// DAG evaluations whose selected plan fuses operators into one kernel.
    pub fused_evals: usize,
    /// The other DAG evaluations, and the operator-level matrix-vector
    /// products of the engines that run no DAGs.
    pub matmul_evals: usize,
    /// Statements executed (loop bodies counted per iteration).
    pub statements: usize,
}

/// A script runtime error with the source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

impl From<ParseError> for ScriptError {
    fn from(e: ParseError) -> Self {
        ScriptError {
            line: e.line,
            message: e.message,
        }
    }
}

#[derive(Clone)]
enum DeviceMat {
    Sparse(GpuCsr),
    Dense(GpuDense),
}

/// Matrix-vector work over one matrix, lowered from an expression and not
/// yet run. Leaves are vector values; every other node holds a product.
enum Node {
    Vector(Rc<Vec<f64>>),
    Mv(Box<Node>),
    Tmv(Box<Node>),
    /// `-a`: a scale by the literal `-1`.
    Neg(Box<Node>),
    /// `s * a` for a scalar `s` of the script.
    Scale(Box<Node>, f64),
    EwMul(Box<Node>, Box<Node>),
    /// `a + sign * b` with `sign` = ±1.
    Axpy(Box<Node>, f64, Box<Node>),
}

impl Node {
    /// The dimension of the node's value; `None` for a leaf, whose
    /// consumer gives it one.
    fn dim(&self) -> Option<Dim> {
        match self {
            Node::Vector(_) => None,
            Node::Mv(_) => Some(Dim::Rows),
            Node::Tmv(_) => Some(Dim::Cols),
            Node::Neg(a) | Node::Scale(a, _) => a.dim(),
            Node::EwMul(a, b) | Node::Axpy(a, _, b) => a.dim().or(b.dim()),
        }
    }

    /// The vector and scalar slots the node's DAG binds.
    fn slots(&self) -> [usize; 2] {
        match self {
            Node::Vector(_) => [1, 0],
            Node::Mv(a) | Node::Tmv(a) | Node::Neg(a) => a.slots(),
            Node::Scale(a, _) => {
                let [v, s] = a.slots();
                [v, s + 1]
            }
            Node::EwMul(a, b) | Node::Axpy(a, _, b) => {
                let ([va, sa], [vb, sb]) = (a.slots(), b.slots());
                [va + vb, sa + sb]
            }
        }
    }
}

/// An operand met while lowering: a value, or a node.
enum Term {
    Value(Value),
    Node(Node),
}

impl Term {
    /// The vector and scalar slots the term binds as an operand of a node.
    fn slots(&self) -> [usize; 2] {
        match self {
            Term::Node(n) => n.slots(),
            Term::Value(Value::Vector(_)) => [1, 0],
            Term::Value(Value::Scalar(_)) => [0, 1],
            Term::Value(_) => [0, 0],
        }
    }
}

/// A DAG being emitted, with the operands its slots bind, in slot order.
#[derive(Default)]
struct Emitted {
    builder: DagBuilder,
    vectors: Vec<Rc<Vec<f64>>>,
    scalars: Vec<f64>,
}

/// Names of an emitted DAG's vector inputs. [`DagInputs`] takes
/// `&'static str` keys, so the names come from a fixed table.
const VECTOR_SLOTS: [&str; 32] = [
    "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11", "v12", "v13", "v14",
    "v15", "v16", "v17", "v18", "v19", "v20", "v21", "v22", "v23", "v24", "v25", "v26", "v27",
    "v28", "v29", "v30", "v31",
];

/// Names of an emitted DAG's scalar parameters. The script's scalars bind
/// as parameters, not literals: the plan cache has no bound, and a literal
/// per value would add one plan per value.
const SCALAR_SLOTS: [&str; 32] = [
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "s12", "s13", "s14",
    "s15", "s16", "s17", "s18", "s19", "s20", "s21", "s22", "s23", "s24", "s25", "s26", "s27",
    "s28", "s29", "s30", "s31",
];

/// The interpreter. Bind inputs with the `bind_*` methods, then
/// [`Interpreter::run`]; `write(x, "name")` results land in
/// [`Interpreter::outputs`].
pub struct Interpreter<'g> {
    mode: EngineMode,
    gpu: Option<&'g Gpu>,
    inputs: HashMap<String, Value>,
    vars: HashMap<String, Value>,
    outputs: HashMap<String, Value>,
    device_cache: HashMap<u64, DeviceMat>,
    /// Made on the first DAG run; its plan cache outlives every run.
    dag: Option<DagExecutor<'g>>,
    next_matrix_id: u64,
    /// Safety valve against runaway `while` loops.
    pub max_statements: usize,
    pub stats: RunStats,
}

impl<'g> Interpreter<'g> {
    /// Host-only interpreter (reference semantics, no device).
    pub fn host_only() -> Self {
        Self::new(EngineMode::HostOnly, None)
    }

    /// Device-backed interpreter.
    pub fn on_gpu(gpu: &'g Gpu, mode: EngineMode) -> Self {
        assert_ne!(mode, EngineMode::HostOnly, "use host_only()");
        Self::new(mode, Some(gpu))
    }

    fn new(mode: EngineMode, gpu: Option<&'g Gpu>) -> Self {
        Interpreter {
            mode,
            gpu,
            inputs: HashMap::new(),
            vars: HashMap::new(),
            outputs: HashMap::new(),
            device_cache: HashMap::new(),
            dag: None,
            next_matrix_id: 0,
            max_statements: 1_000_000,
            stats: RunStats::default(),
        }
    }

    /// Bind a sparse matrix for `read("name")`.
    pub fn bind_sparse(&mut self, name: &str, x: CsrMatrix) {
        let id = self.fresh_id();
        self.inputs.insert(
            name.to_string(),
            Value::Matrix(Rc::new(MatrixVal {
                id,
                data: HostMatrix::Sparse(x),
            })),
        );
    }

    /// Bind a dense matrix for `read("name")`.
    pub fn bind_dense(&mut self, name: &str, x: DenseMatrix) {
        let id = self.fresh_id();
        self.inputs.insert(
            name.to_string(),
            Value::Matrix(Rc::new(MatrixVal {
                id,
                data: HostMatrix::Dense(x),
            })),
        );
    }

    /// Bind a (column-)vector for `read("name")`.
    pub fn bind_vector(&mut self, name: &str, v: Vec<f64>) {
        self.inputs.insert(name.to_string(), Value::vector(v));
    }

    /// Bind a scalar for `read("name")`.
    pub fn bind_scalar(&mut self, name: &str, v: f64) {
        self.inputs.insert(name.to_string(), Value::Scalar(v));
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_matrix_id += 1;
        self.next_matrix_id
    }

    /// Values passed to `write(x, "name")`.
    pub fn outputs(&self) -> &HashMap<String, Value> {
        &self.outputs
    }

    /// Variable lookup after a run (diagnostics).
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Parse and execute a script.
    pub fn run(&mut self, src: &str) -> Result<(), ScriptError> {
        self.run_program(&parse(src)?)
    }

    /// Execute an already-parsed program. In [`EngineMode::FusedGpu`]
    /// each expression is lowered to operator DAGs as it is evaluated.
    pub fn run_program(&mut self, prog: &Program) -> Result<(), ScriptError> {
        self.exec_block(&prog.statements)
    }

    fn exec_block(&mut self, body: &[Stmt]) -> Result<(), ScriptError> {
        for s in body {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<(), ScriptError> {
        self.stats.statements += 1;
        if self.stats.statements > self.max_statements {
            return Err(ScriptError {
                line: stmt_line(s),
                message: format!(
                    "statement budget ({}) exhausted — non-terminating loop?",
                    self.max_statements
                ),
            });
        }
        match s {
            Stmt::Assign { name, value, line } => {
                let v = self.eval(value, *line)?;
                self.vars.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Expr { value, line } => {
                self.eval(value, *line)?;
                Ok(())
            }
            Stmt::While { cond, body, line } => loop {
                let c = self.eval(cond, *line)?;
                let go = c.truthy().ok_or_else(|| ScriptError {
                    line: *line,
                    message: format!("while condition must be scalar, got {}", c.type_name()),
                })?;
                if !go {
                    return Ok(());
                }
                self.exec_block(body)?;
                self.stats.statements += 1;
                if self.stats.statements > self.max_statements {
                    return Err(ScriptError {
                        line: *line,
                        message: "statement budget exhausted in while loop".into(),
                    });
                }
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let c = self.eval(cond, *line)?;
                let go = c.truthy().ok_or_else(|| ScriptError {
                    line: *line,
                    message: format!("if condition must be scalar, got {}", c.type_name()),
                })?;
                if go {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                }
            }
        }
    }

    fn eval(&mut self, e: &Expr, line: usize) -> Result<Value, ScriptError> {
        match e {
            Expr::Unary(..) | Expr::Binary(..) if self.mode == EngineMode::FusedGpu => {
                let mut x = None;
                let t = self.lower(&mut x, e, line)?;
                self.force(&x, t, line)
            }
            Expr::Number(v) => Ok(Value::Scalar(*v)),
            Expr::Str(s) => Ok(Value::Str(Rc::new(s.clone()))),
            Expr::Ident(name) => self.vars.get(name).cloned().ok_or_else(|| ScriptError {
                line,
                message: format!("undefined variable '{name}'"),
            }),
            Expr::Unary(op, a) => {
                let v = self.eval(a, line)?;
                self.unary(*op, v, line)
            }
            Expr::Binary(op, a, b) => {
                let l = self.eval(a, line)?;
                let r = self.eval(b, line)?;
                self.binary(*op, l, r, line)
            }
            Expr::Call { name, args } => self.call(name, args, line),
        }
    }

    fn unary(&mut self, op: UnaryOp, v: Value, line: usize) -> Result<Value, ScriptError> {
        match (op, v) {
            (UnaryOp::Neg, Value::Scalar(x)) => Ok(Value::Scalar(-x)),
            (UnaryOp::Neg, Value::Vector(x)) => Ok(Value::vector(x.iter().map(|v| -v).collect())),
            (UnaryOp::Not, Value::Scalar(x)) => Ok(Value::Scalar(if x == 0.0 { 1.0 } else { 0.0 })),
            (op, v) => Err(ScriptError {
                line,
                message: format!("cannot apply {op:?} to {}", v.type_name()),
            }),
        }
    }

    fn binary(&mut self, op: BinOp, l: Value, r: Value, line: usize) -> Result<Value, ScriptError> {
        use BinOp::*;
        if op == MatMul {
            return self.matmul(l, r, line);
        }
        match (l, r) {
            (Value::Scalar(a), Value::Scalar(b)) => Ok(Value::Scalar(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Pow => a.powf(b),
                Eq => (a == b) as i32 as f64,
                Ne => (a != b) as i32 as f64,
                Lt => (a < b) as i32 as f64,
                Le => (a <= b) as i32 as f64,
                Gt => (a > b) as i32 as f64,
                Ge => (a >= b) as i32 as f64,
                And => ((a != 0.0) && (b != 0.0)) as i32 as f64,
                Or => ((a != 0.0) || (b != 0.0)) as i32 as f64,
                MatMul => unreachable!(),
            })),
            (Value::Vector(a), Value::Vector(b)) => {
                if a.len() != b.len() {
                    return Err(ScriptError {
                        line,
                        message: format!(
                            "element-wise {op} on vectors of length {} and {}",
                            a.len(),
                            b.len()
                        ),
                    });
                }
                let f = elementwise_fn(op).ok_or_else(|| ScriptError {
                    line,
                    message: format!("operator {op} not supported on vectors"),
                })?;
                Ok(Value::vector(
                    a.iter().zip(b.iter()).map(|(x, y)| f(*x, *y)).collect(),
                ))
            }
            (Value::Scalar(a), Value::Vector(b)) => {
                let f = elementwise_fn(op).ok_or_else(|| ScriptError {
                    line,
                    message: format!("operator {op} not supported on vectors"),
                })?;
                Ok(Value::vector(b.iter().map(|y| f(a, *y)).collect()))
            }
            (Value::Vector(a), Value::Scalar(b)) => {
                let f = elementwise_fn(op).ok_or_else(|| ScriptError {
                    line,
                    message: format!("operator {op} not supported on vectors"),
                })?;
                Ok(Value::vector(a.iter().map(|x| f(*x, b)).collect()))
            }
            (l, r) => Err(ScriptError {
                line,
                message: format!(
                    "operator {op} not defined on {} and {}",
                    l.type_name(),
                    r.type_name()
                ),
            }),
        }
    }

    /// `%*%` over the supported operand shapes.
    fn matmul(&mut self, l: Value, r: Value, line: usize) -> Result<Value, ScriptError> {
        let err = |message: String| ScriptError { line, message };
        if let (Some((x, transposed)), Value::Vector(y)) = (matrix_operand(&l), &r) {
            let (name, need) = match transposed {
                false => ("X %*% y", x.data.cols()),
                true => ("t(X) %*% y", x.data.rows()),
            };
            if y.len() != need {
                let (rows, cols) = (x.data.rows(), x.data.cols());
                return Err(err(format!(
                    "{name}: a {rows}x{cols} matrix and a vector of length {}",
                    y.len()
                )));
            }
            self.stats.matmul_evals += 1;
            return self.matrix_product(&x, y, transposed, line);
        }
        match (l, r) {
            // t(p) %*% q: dot product.
            (Value::Transposed(p), Value::Vector(q)) => match *p {
                Value::Vector(p) if p.len() == q.len() => {
                    self.charge_dot(p.len());
                    Ok(Value::Scalar(reference::dot(&p, &q)))
                }
                Value::Vector(_) => Err(err("dot product length mismatch".into())),
                p => Err(err(format!(
                    "%*% not defined on t({}) and vector",
                    p.type_name()
                ))),
            },
            (l, r) => Err(err(format!(
                "%*% not defined on {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[crate::ast::Arg],
        line: usize,
    ) -> Result<Value, ScriptError> {
        let err = |msg: String| ScriptError { line, message: msg };
        match name {
            "read" => {
                let key = self.string_arg(args, 0, line)?;
                self.inputs
                    .get(&key)
                    .cloned()
                    .ok_or_else(|| err(format!("no input bound for read(\"{key}\")")))
            }
            "write" => {
                if args.len() != 2 {
                    return Err(err("write(x, \"name\") takes two arguments".into()));
                }
                let v = self.eval(&args[0].value, line)?;
                let key = self.string_arg(args, 1, line)?;
                self.outputs.insert(key, v);
                Ok(Value::Scalar(0.0))
            }
            "t" => {
                if args.len() != 1 {
                    return Err(err("t(x) takes one argument".into()));
                }
                let v = self.eval(&args[0].value, line)?;
                Ok(Value::Transposed(Box::new(v)))
            }
            "sum" => {
                let v = self.positional_arg(args, 0, line)?;
                match v {
                    Value::Vector(x) => {
                        self.charge_dot(x.len());
                        Ok(Value::Scalar(x.iter().sum()))
                    }
                    Value::Scalar(x) => Ok(Value::Scalar(x)),
                    other => Err(err(format!("sum() of {}", other.type_name()))),
                }
            }
            "nrow" | "ncol" => {
                let v = self.positional_arg(args, 0, line)?;
                match v {
                    Value::Matrix(m) => Ok(Value::Scalar(if name == "nrow" {
                        m.data.rows() as f64
                    } else {
                        m.data.cols() as f64
                    })),
                    Value::Vector(x) => Ok(Value::Scalar(if name == "nrow" {
                        x.len() as f64
                    } else {
                        1.0
                    })),
                    other => Err(err(format!("{name}() of {}", other.type_name()))),
                }
            }
            "matrix" => {
                // matrix(fill, rows=R, cols=C) with C == 1 (column vector).
                let fill = self
                    .positional_arg(args, 0, line)?
                    .as_scalar()
                    .ok_or_else(|| err("matrix() fill value must be scalar".into()))?;
                let rows = self.named_scalar(args, "rows", line)?;
                let cols = self.named_scalar(args, "cols", line)?;
                if cols != 1.0 && rows != 1.0 {
                    return Err(err("matrix(): only row/column vectors are supported".into()));
                }
                let whole = |d: f64| d >= 0.0 && d.fract() == 0.0;
                if !(whole(rows) && whole(cols) && (rows * cols).is_finite()) {
                    return Err(err(format!("matrix(): no {rows} x {cols} vector")));
                }
                // A size the host cannot hold is an error, not an abort.
                let len = (rows * cols) as usize;
                let mut v = Vec::new();
                v.try_reserve_exact(len)
                    .map_err(|e| err(format!("matrix(): cannot allocate {rows} x {cols}: {e}")))?;
                v.resize(len, fill);
                Ok(Value::vector(v))
            }
            "sqrt" | "abs" | "exp" | "log" => {
                let v = self.positional_arg(args, 0, line)?;
                let f = match name {
                    "sqrt" => f64::sqrt,
                    "abs" => f64::abs,
                    "exp" => f64::exp,
                    _ => f64::ln,
                };
                match v {
                    Value::Scalar(x) => Ok(Value::Scalar(f(x))),
                    Value::Vector(x) => Ok(Value::vector(x.iter().map(|v| f(*v)).collect())),
                    other => Err(err(format!("{name}() of {}", other.type_name()))),
                }
            }
            "min" | "max" => {
                let a = self
                    .positional_arg(args, 0, line)?
                    .as_scalar()
                    .ok_or_else(|| err(format!("{name}() takes scalars")))?;
                let b = self
                    .positional_arg(args, 1, line)?
                    .as_scalar()
                    .ok_or_else(|| err(format!("{name}() takes scalars")))?;
                Ok(Value::Scalar(if name == "min" {
                    a.min(b)
                } else {
                    a.max(b)
                }))
            }
            other => Err(err(format!("unknown function '{other}'"))),
        }
    }

    fn positional_arg(
        &mut self,
        args: &[crate::ast::Arg],
        idx: usize,
        line: usize,
    ) -> Result<Value, ScriptError> {
        let arg = args.get(idx).ok_or_else(|| ScriptError {
            line,
            message: format!("missing argument {idx}"),
        })?;
        self.eval(&arg.value, line)
    }

    fn string_arg(
        &mut self,
        args: &[crate::ast::Arg],
        idx: usize,
        line: usize,
    ) -> Result<String, ScriptError> {
        match self.positional_arg(args, idx, line)? {
            Value::Str(s) => Ok((*s).clone()),
            other => Err(ScriptError {
                line,
                message: format!("expected a string argument, got {}", other.type_name()),
            }),
        }
    }

    fn named_scalar(
        &mut self,
        args: &[crate::ast::Arg],
        name: &str,
        line: usize,
    ) -> Result<f64, ScriptError> {
        let arg = args
            .iter()
            .find(|a| a.name.as_deref() == Some(name))
            .ok_or_else(|| ScriptError {
                line,
                message: format!("missing named argument '{name}'"),
            })?;
        let value = arg.value.clone();
        self.eval(&value, line)?
            .as_scalar()
            .ok_or_else(|| ScriptError {
                line,
                message: format!("argument '{name}' must be scalar"),
            })
    }

    // ------------- device dispatch -------------

    /// The device matrix operators run on; `None` in host-only mode.
    fn device(&self) -> Option<&'g Gpu> {
        self.gpu.filter(|_| self.mode != EngineMode::HostOnly)
    }

    /// `m`'s device copy, uploaded on first use.
    fn device_matrix(&mut self, gpu: &Gpu, m: &MatrixVal) -> Result<DeviceMat, DeviceError> {
        if let Some(d) = self.device_cache.get(&m.id) {
            return Ok(d.clone());
        }
        let d = match &m.data {
            HostMatrix::Sparse(x) => DeviceMat::Sparse(GpuCsr::try_upload(gpu, "script.X", x)?),
            HostMatrix::Dense(x) => DeviceMat::Dense(GpuDense::try_upload(gpu, "script.X", x)?),
        };
        self.device_cache.insert(m.id, d.clone());
        Ok(d)
    }

    /// `X %*% y`, or `t(X) %*% y` when `transposed`, as one operator-level
    /// product: the baseline's kernels, or the host reference. A product
    /// over a matrix with no rows or no columns takes the host's result
    /// and launches nothing.
    fn matrix_product(
        &mut self,
        x: &MatrixVal,
        y: &[f64],
        transposed: bool,
        line: usize,
    ) -> Result<Value, ScriptError> {
        let Some(gpu) = self.device().filter(|_| !is_empty(&x.data)) else {
            return Ok(Value::vector(host_product(&x.data, y, transposed)));
        };
        let xd = self.device_matrix(gpu, x).map_err(device_error(line))?;
        let len = if transposed {
            x.data.cols()
        } else {
            x.data.rows()
        };
        let run = || -> Result<_, DeviceError> {
            let yd = gpu.try_upload_f64("script.y", y)?;
            let out = gpu.try_alloc_f64("script.w", len)?;
            let mut engine = BaselineEngine::try_new(gpu, Flavor::CuLibs)?;
            match (&xd, transposed) {
                (DeviceMat::Sparse(xd), false) => engine.try_csrmv(xd, &yd, &out)?,
                (DeviceMat::Dense(xd), false) => engine.try_gemv(xd, &yd, &out)?,
                (DeviceMat::Sparse(xd), true) => engine.try_csrmv_t(xd, &yd, &out)?,
                (DeviceMat::Dense(xd), true) => engine.try_gemv_t(xd, &yd, &out)?,
            }
            Ok((out, engine))
        };
        let (out, engine) = run().map_err(device_error(line))?;
        self.stats.sim_ms += engine.total_sim_ms();
        self.stats.launches += engine.launch_count();
        Ok(Value::vector(out.to_vec_f64()))
    }

    fn charge_dot(&mut self, _n: usize) {
        // BLAS-1 on the device would be one launch; charge it when a GPU
        // is attached so launch counts compare fairly across modes.
        if self.gpu.is_some() && self.mode != EngineMode::HostOnly {
            self.stats.launches += 1;
            self.stats.sim_ms += 0.005; // launch overhead class
        }
    }

    // ------------- lowering to operator DAGs -------------

    /// Lowers `e` in [`EngineMode::FusedGpu`]: the products over `x`, the
    /// first matrix met, and the `+`, `-`, `*` and unary `-` that combine
    /// them with vectors, scalars or each other become a [`Node`]. Every
    /// other operand evaluates to a value, left to right.
    fn lower(
        &mut self,
        x: &mut Option<Rc<MatrixVal>>,
        e: &Expr,
        line: usize,
    ) -> Result<Term, ScriptError> {
        let (op, lhs, rhs) = match e {
            Expr::Unary(UnaryOp::Neg, a) => {
                return match self.lower(x, a, line)? {
                    Term::Node(n) => Ok(Term::Node(Node::Neg(Box::new(n)))),
                    Term::Value(v) => self.unary(UnaryOp::Neg, v, line).map(Term::Value),
                };
            }
            Expr::Unary(op, a) => {
                let t = self.lower(x, a, line)?;
                let v = self.force(x, t, line)?;
                return self.unary(*op, v, line).map(Term::Value);
            }
            Expr::Binary(BinOp::MatMul, a, b) => return self.lower_product(x, a, b, line),
            Expr::Binary(op, a, b) => (*op, a, b),
            _ => return self.eval(e, line).map(Term::Value),
        };
        let mut l = self.lower(x, lhs, line)?;
        let mut r = self.lower(x, rhs, line)?;
        // A node binds at most the slot tables' operands. Past them, the
        // operand that binds more of the full table's slots runs as its
        // own DAG and enters as a vector, until the two fit.
        loop {
            let ([lv, ls], [rv, rs]) = (l.slots(), r.slots());
            let left = if lv + rv > VECTOR_SLOTS.len() {
                lv >= rv
            } else if ls + rs > SCALAR_SLOTS.len() {
                ls >= rs
            } else {
                break;
            };
            if left {
                l = Term::Value(self.force(x, l, line)?);
            } else {
                r = Term::Value(self.force(x, r, line)?);
            }
        }
        let sign = if op == BinOp::Sub { -1.0 } else { 1.0 };
        let node = match (op, l, r) {
            (BinOp::Mul, Term::Node(n), Term::Value(Value::Scalar(s)))
            | (BinOp::Mul, Term::Value(Value::Scalar(s)), Term::Node(n)) => {
                Node::Scale(Box::new(n), s)
            }
            (BinOp::Mul, Term::Node(n), Term::Value(Value::Vector(v)))
            | (BinOp::Mul, Term::Value(Value::Vector(v)), Term::Node(n)) => {
                Node::EwMul(Box::new(n), Box::new(Node::Vector(v)))
            }
            (BinOp::Mul, Term::Node(a), Term::Node(b)) => Node::EwMul(Box::new(a), Box::new(b)),
            (BinOp::Add | BinOp::Sub, Term::Node(a), Term::Node(b)) => {
                Node::Axpy(Box::new(a), sign, Box::new(b))
            }
            (BinOp::Add | BinOp::Sub, Term::Node(a), Term::Value(Value::Vector(v))) => {
                Node::Axpy(Box::new(a), sign, Box::new(Node::Vector(v)))
            }
            // `v ± e` as `±e + v`: the product stays the primary operand,
            // the one the fusion compiler chains along.
            (BinOp::Add | BinOp::Sub, Term::Value(Value::Vector(v)), Term::Node(n)) => {
                let n = if op == BinOp::Sub {
                    Node::Neg(Box::new(n))
                } else {
                    n
                };
                Node::Axpy(Box::new(n), 1.0, Box::new(Node::Vector(v)))
            }
            // No DAG operator (a scalar added to a product, `/`, `^`, a
            // comparison): the product runs first, the host operator after.
            (op, l, r) => {
                let l = self.force(x, l, line)?;
                let r = self.force(x, r, line)?;
                return self.binary(op, l, r, line).map(Term::Value);
            }
        };
        Ok(Term::Node(node))
    }

    /// `a %*% b`. A product over the lowering's matrix becomes a node; one
    /// over a second matrix runs as its own DAG and enters as a vector.
    /// Every other product (`t(p) %*% q` of two vectors, or a product over
    /// a matrix with no rows or no columns) is [`Interpreter::matmul`]'s,
    /// as are the errors.
    fn lower_product(
        &mut self,
        x: &mut Option<Rc<MatrixVal>>,
        a: &Expr,
        b: &Expr,
        line: usize,
    ) -> Result<Term, ScriptError> {
        let l = self.eval(a, line)?;
        let Some((m, transposed)) = matrix_operand(&l).filter(|(m, _)| !is_empty(&m.data)) else {
            let r = self.lower(x, b, line)?;
            let r = self.force(x, r, line)?;
            return self.matmul(l, r, line).map(Term::Value);
        };
        let same = x.get_or_insert_with(|| m.clone()).id == m.id;
        let mut own = Some(m.clone());
        let y = match self.lower(if same { &mut *x } else { &mut own }, b, line)? {
            Term::Node(n) => n,
            Term::Value(Value::Vector(v)) => Node::Vector(v),
            Term::Value(r) => return self.matmul(l, r, line).map(Term::Value),
        };
        let node = if transposed {
            Node::Tmv(Box::new(y))
        } else {
            Node::Mv(Box::new(y))
        };
        if same {
            return Ok(Term::Node(node));
        }
        self.run_dag(&m, node, line)
            .map(|w| Term::Value(Value::vector(w)))
    }

    /// A node runs over `x` as one DAG; a value passes through.
    fn force(
        &mut self,
        x: &Option<Rc<MatrixVal>>,
        t: Term,
        line: usize,
    ) -> Result<Value, ScriptError> {
        match (t, x) {
            (Term::Value(v), _) => Ok(v),
            (Term::Node(n), Some(x)) => self.run_dag(x, n, line).map(Value::vector),
            (Term::Node(_), None) => unreachable!("a node holds a product over a bound matrix"),
        }
    }

    /// Emits `node` into a DAG over `x` and runs it on the plan
    /// [`DagExecutor::try_run`] selects for the DAG's structure, or finds
    /// in its plan cache.
    fn run_dag(
        &mut self,
        x: &Rc<MatrixVal>,
        node: Node,
        line: usize,
    ) -> Result<Vec<f64>, ScriptError> {
        let Some(want) = node.dim() else {
            unreachable!("a lowered expression holds a product")
        };
        let Some(gpu) = self.device() else {
            unreachable!("FusedGpu mode runs on a device")
        };
        let mut emitted = Emitted::default();
        let output = self.emit(x, node, want, &mut emitted, line)?;
        let dag = emitted.builder.finish(output);
        let xd = self.device_matrix(gpu, x).map_err(device_error(line))?;
        let mut exec = match self.dag.take() {
            Some(exec) => exec,
            None => DagExecutor::try_new(gpu).map_err(device_error(line))?,
        };
        let run = |exec: &mut DagExecutor<'g>| -> Result<_, DeviceError> {
            // Operands upload in slot order, then the output is allocated.
            let bufs = emitted
                .vectors
                .iter()
                .zip(VECTOR_SLOTS)
                .map(|(v, name)| gpu.try_upload_f64(name, v))
                .collect::<Result<Vec<_>, _>>()?;
            let out = gpu.try_alloc_f64("script.w", dim_len(&x.data, want))?;
            let inputs = VECTOR_SLOTS
                .into_iter()
                .zip(&bufs)
                .fold(DagInputs::new(), |i, (name, buf)| i.vector(name, buf));
            let inputs = SCALAR_SLOTS
                .into_iter()
                .zip(&emitted.scalars)
                .fold(inputs, |i, (name, s)| i.scalar(name, *s));
            let matrix = match &xd {
                DeviceMat::Sparse(m) => DagMatrix::Sparse(m),
                DeviceMat::Dense(m) => DagMatrix::Dense(m),
            };
            exec.reset();
            let run = exec.try_run(&dag, &matrix, &inputs, &out)?;
            let fused = run.plan.groups.iter().any(|g| g.kind.is_fused());
            Ok((out.to_vec_f64(), fused))
        };
        let result = run(&mut exec).map_err(device_error(line));
        if let Ok((_, fused)) = &result {
            self.stats.sim_ms += exec.total_sim_ms();
            self.stats.launches += exec.launch_count();
            if *fused {
                self.stats.fused_evals += 1;
            } else {
                self.stats.matmul_evals += 1;
            }
        }
        self.dag = Some(exec);
        result.map(|(w, _)| w)
    }

    /// Emits `node` into `dag` as a vector of dimension `want`.
    fn emit(
        &mut self,
        x: &Rc<MatrixVal>,
        node: Node,
        want: Dim,
        dag: &mut Emitted,
        line: usize,
    ) -> Result<NodeId, ScriptError> {
        let len = dim_len(&x.data, want);
        let misfit = |got: usize| ScriptError {
            line,
            message: format!(
                "an operand of length {got} where the {}x{} matrix's product needs {len}",
                x.data.rows(),
                x.data.cols()
            ),
        };
        let mut node = node;
        if let Some(d) = node.dim().filter(|&d| d != want) {
            if dim_len(&x.data, d) != len {
                return Err(misfit(dim_len(&x.data, d)));
            }
            // On a square matrix the dimensions clash while the lengths
            // fit: the node runs first and enters as a vector.
            node = Node::Vector(Rc::new(self.run_dag(x, node, line)?));
        }
        Ok(match node {
            Node::Vector(v) => {
                if v.len() != len {
                    return Err(misfit(v.len()));
                }
                let name = slot(&VECTOR_SLOTS, dag.vectors.len(), line)?;
                dag.vectors.push(v);
                dag.builder.input(name, want)
            }
            Node::Mv(y) => {
                let y = self.emit(x, *y, Dim::Cols, dag, line)?;
                dag.builder.mv(y)
            }
            Node::Tmv(u) => {
                let u = self.emit(x, *u, Dim::Rows, dag, line)?;
                dag.builder.tmv(u)
            }
            Node::Neg(a) => {
                let a = self.emit(x, *a, want, dag, line)?;
                dag.builder.scale(a, ScalarRef::Lit(-1.0))
            }
            Node::Scale(a, s) => {
                let a = self.emit(x, *a, want, dag, line)?;
                let name = slot(&SCALAR_SLOTS, dag.scalars.len(), line)?;
                dag.scalars.push(s);
                dag.builder.scale(a, ScalarRef::Param(name))
            }
            Node::EwMul(a, b) => {
                let a = self.emit(x, *a, want, dag, line)?;
                let b = self.emit(x, *b, want, dag, line)?;
                dag.builder.ewmul(a, b)
            }
            Node::Axpy(a, sign, b) => {
                let a = self.emit(x, *a, want, dag, line)?;
                let b = self.emit(x, *b, want, dag, line)?;
                dag.builder.axpy(a, ScalarRef::Lit(sign), b)
            }
        })
    }
}

/// A device fault surfaces as a [`ScriptError`] on the line that hit it.
fn device_error(line: usize) -> impl Fn(DeviceError) -> ScriptError + Copy {
    move |e| ScriptError {
        line,
        message: format!("device error: {e}"),
    }
}

/// The `i`th name of a slot table, or an error past its end. `lower`
/// splits every combination that would bind more operands than the
/// tables name, so no emitted DAG reaches the error.
fn slot(table: &[&'static str], i: usize, line: usize) -> Result<&'static str, ScriptError> {
    table.get(i).copied().ok_or_else(|| ScriptError {
        line,
        message: format!(
            "an expression over one matrix takes at most {} vector and {} scalar operands",
            VECTOR_SLOTS.len(),
            SCALAR_SLOTS.len()
        ),
    })
}

/// The matrix of a `%*%`'s left operand, and whether it is transposed.
fn matrix_operand(v: &Value) -> Option<(Rc<MatrixVal>, bool)> {
    match v {
        Value::Matrix(m) => Some((m.clone(), false)),
        Value::Transposed(t) => match &**t {
            Value::Matrix(m) => Some((m.clone(), true)),
            _ => None,
        },
        _ => None,
    }
}

/// Whether `x` has no rows or no columns: a product over it has no
/// element to launch a kernel on.
fn is_empty(x: &HostMatrix) -> bool {
    x.rows() == 0 || x.cols() == 0
}

fn dim_len(x: &HostMatrix, d: Dim) -> usize {
    match d {
        Dim::Rows => x.rows(),
        Dim::Cols => x.cols(),
    }
}

fn stmt_line(s: &Stmt) -> usize {
    match s {
        Stmt::Assign { line, .. }
        | Stmt::While { line, .. }
        | Stmt::If { line, .. }
        | Stmt::Expr { line, .. } => *line,
    }
}

fn elementwise_fn(op: BinOp) -> Option<fn(f64, f64) -> f64> {
    Some(match op {
        BinOp::Add => |a, b| a + b,
        BinOp::Sub => |a, b| a - b,
        BinOp::Mul => |a, b| a * b,
        BinOp::Div => |a, b| a / b,
        BinOp::Pow => |a, b| a.powf(b),
        _ => return None,
    })
}

fn host_product(x: &HostMatrix, y: &[f64], transposed: bool) -> Vec<f64> {
    match (x, transposed) {
        (HostMatrix::Sparse(x), false) => reference::csr_mv(x, y),
        (HostMatrix::Dense(x), false) => reference::dense_mv(x, y),
        (HostMatrix::Sparse(x), true) => reference::csr_tmv(x, y),
        (HostMatrix::Dense(x), true) => reference::dense_tmv(x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_matrix::gen::uniform_sparse;

    fn eval_scalar(src: &str) -> f64 {
        let mut i = Interpreter::host_only();
        i.run(&format!("result = {src}\nwrite(result, \"r\")"))
            .unwrap();
        i.outputs()["r"].as_scalar().unwrap()
    }

    #[test]
    fn scalar_arithmetic_table() {
        assert_eq!(eval_scalar("1 + 2 * 3"), 7.0);
        assert_eq!(eval_scalar("(1 + 2) * 3"), 9.0);
        assert_eq!(eval_scalar("2 ^ 10"), 1024.0);
        assert_eq!(eval_scalar("7 / 2"), 3.5);
        assert_eq!(eval_scalar("-3 + 1"), -2.0);
        assert_eq!(eval_scalar("10 - 4 - 3"), 3.0); // left associative
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval_scalar("1 < 2"), 1.0);
        assert_eq!(eval_scalar("2 <= 1"), 0.0);
        assert_eq!(eval_scalar("1 == 1 & 2 > 1"), 1.0);
        assert_eq!(eval_scalar("0 | 1"), 1.0);
        assert_eq!(eval_scalar("!1"), 0.0);
        assert_eq!(eval_scalar("3 != 3"), 0.0);
    }

    #[test]
    fn vector_broadcasting() {
        let mut i = Interpreter::host_only();
        i.bind_vector("v", vec![1.0, 2.0, 3.0]);
        i.run(
            "v = read(\"v\")\n\
             a = 2 * v + 1\n\
             b = v * v\n\
             write(sum(a), \"sa\")\n\
             write(sum(b), \"sb\")",
        )
        .unwrap();
        assert_eq!(i.outputs()["sa"].as_scalar().unwrap(), 15.0); // 3+5+7
        assert_eq!(i.outputs()["sb"].as_scalar().unwrap(), 14.0); // 1+4+9
    }

    #[test]
    fn builtins() {
        let mut i = Interpreter::host_only();
        i.bind_sparse("X", uniform_sparse(6, 4, 0.5, 1));
        i.run(
            "X = read(\"X\")\n\
             write(nrow(X), \"m\")\n\
             write(ncol(X), \"n\")\n\
             z = matrix(2.5, rows=ncol(X), cols=1)\n\
             write(sum(z), \"sz\")\n\
             write(sqrt(16), \"sq\")\n\
             write(max(min(3, 5), 1), \"mm\")",
        )
        .unwrap();
        assert_eq!(i.outputs()["m"].as_scalar().unwrap(), 6.0);
        assert_eq!(i.outputs()["n"].as_scalar().unwrap(), 4.0);
        assert_eq!(i.outputs()["sz"].as_scalar().unwrap(), 10.0);
        assert_eq!(i.outputs()["sq"].as_scalar().unwrap(), 4.0);
        assert_eq!(i.outputs()["mm"].as_scalar().unwrap(), 3.0);
    }

    #[test]
    fn if_else_branches() {
        let mut i = Interpreter::host_only();
        i.run(
            "x = 5\n\
             if (x > 3) { y = 1 } else { y = 2 }\n\
             if (x < 3) { z = 1 } else { z = 2 }\n\
             write(y + z, \"r\")",
        )
        .unwrap();
        assert_eq!(i.outputs()["r"].as_scalar().unwrap(), 3.0);
    }

    #[test]
    fn undefined_variable_error() {
        let mut i = Interpreter::host_only();
        let err = i.run("a = nope + 1").unwrap_err();
        assert!(err.message.contains("undefined variable"));
    }

    #[test]
    fn vector_length_mismatch_error() {
        let mut i = Interpreter::host_only();
        i.bind_vector("a", vec![1.0, 2.0]);
        i.bind_vector("b", vec![1.0, 2.0, 3.0]);
        let err = i
            .run("a = read(\"a\")\nb = read(\"b\")\nc = a + b")
            .unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn missing_input_error() {
        let mut i = Interpreter::host_only();
        let err = i.run("x = read(\"ghost\")").unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn transpose_dot_product() {
        let mut i = Interpreter::host_only();
        i.bind_vector("p", vec![1.0, 2.0, 3.0]);
        i.bind_vector("q", vec![4.0, 5.0, 6.0]);
        i.run("p = read(\"p\")\nq = read(\"q\")\nwrite(t(p) %*% q, \"d\")")
            .unwrap();
        assert_eq!(i.outputs()["d"].as_scalar().unwrap(), 32.0);
    }
}
