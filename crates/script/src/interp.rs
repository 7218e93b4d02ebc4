//! The mini-DML interpreter.
//!
//! Numeric semantics follow R/DML for the supported subset: scalars
//! broadcast over vectors, `%*%` multiplies matrices and vectors, `t(p)
//! %*% q` of two vectors is a dot product. Three execution engines share
//! the same semantics and differ only in what the hot operators cost:
//!
//! * [`EngineMode::FusedGpu`] — the program is run through the fusion
//!   optimizer first; `FusedPattern` nodes execute on the simulated device
//!   via the paper's fused kernels (§4.4's "transparently selects").
//! * [`EngineMode::BaselineGpu`] — no fusion; every matrix product is an
//!   operator-level kernel (cuSPARSE/cuBLAS composition).
//! * [`EngineMode::HostOnly`] — reference CPU execution, no device costs.

use crate::ast::{BinOp, Expr, FusedPattern, Program, Stmt, UnaryOp};
use crate::optimizer::optimize;
use crate::parser::{parse, ParseError};
use crate::value::{HostMatrix, MatrixVal, Value};
use fusedml_blas::{BaselineEngine, Flavor, GpuCsr, GpuDense};
use fusedml_core::{FusedExecutor, PatternSpec};
use fusedml_gpu_sim::{DeviceError, Gpu};
use fusedml_matrix::{reference, CsrMatrix, DenseMatrix};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// How the interpreter executes matrix operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
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
    /// Fused-pattern kernel evaluations.
    pub fused_evals: usize,
    /// Operator-level matrix-vector products.
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

    /// Parse, (maybe) optimize, and execute a script.
    pub fn run(&mut self, src: &str) -> Result<(), ScriptError> {
        let prog = parse(src)?;
        let prog = match self.mode {
            EngineMode::FusedGpu => optimize(&prog),
            _ => prog,
        };
        self.run_program(&prog)
    }

    /// Execute an already-parsed program (no optimizer pass).
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
            Expr::FusedPattern(p) => self.eval_fused(p, line),
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
        match (l, r) {
            // X %*% y
            (Value::Matrix(x), Value::Vector(y)) => {
                if x.data.cols() != y.len() {
                    return Err(ScriptError {
                        line,
                        message: format!(
                            "X %*% y: {} columns vs vector length {}",
                            x.data.cols(),
                            y.len()
                        ),
                    });
                }
                self.stats.matmul_evals += 1;
                self.device_mv(&x, &y, line)
            }
            // t(X) %*% p  (unfused / baseline path)
            (Value::Transposed(inner), r) => match (*inner, r) {
                (Value::Matrix(x), Value::Vector(p)) => {
                    if x.data.rows() != p.len() {
                        return Err(ScriptError {
                            line,
                            message: format!(
                                "t(X) %*% p: {} rows vs vector length {}",
                                x.data.rows(),
                                p.len()
                            ),
                        });
                    }
                    self.stats.matmul_evals += 1;
                    self.device_tmv(&x, &p, line)
                }
                // t(p) %*% q: dot product.
                (Value::Vector(p), Value::Vector(q)) => {
                    if p.len() != q.len() {
                        return Err(ScriptError {
                            line,
                            message: "dot product length mismatch".into(),
                        });
                    }
                    self.charge_dot(p.len());
                    Ok(Value::Scalar(reference::dot(&p, &q)))
                }
                (l, r) => Err(ScriptError {
                    line,
                    message: format!(
                        "%*% not defined on t({}) and {}",
                        l.type_name(),
                        r.type_name()
                    ),
                }),
            },
            (l, r) => Err(ScriptError {
                line,
                message: format!("%*% not defined on {} and {}", l.type_name(), r.type_name()),
            }),
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
                let len = (rows * cols) as usize;
                Ok(Value::vector(vec![fill; len]))
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

    /// `X %*% y` with per-mode cost accounting.
    fn device_mv(
        &mut self,
        x: &Rc<MatrixVal>,
        y: &[f64],
        line: usize,
    ) -> Result<Value, ScriptError> {
        let Some(gpu) = self.device() else {
            return Ok(Value::vector(host_mv(&x.data, y)));
        };
        let xd = self.device_matrix(gpu, x).map_err(device_error(line))?;
        let run = || -> Result<_, DeviceError> {
            let yd = gpu.try_upload_f64("script.y", y)?;
            let out = gpu.try_alloc_f64("script.p", x.data.rows())?;
            let mut engine = BaselineEngine::try_new(gpu, Flavor::CuLibs)?;
            match &xd {
                DeviceMat::Sparse(xd) => engine.try_csrmv(xd, &yd, &out)?,
                DeviceMat::Dense(xd) => engine.try_gemv(xd, &yd, &out)?,
            }
            Ok((out, engine))
        };
        let (out, engine) = run().map_err(device_error(line))?;
        self.stats.sim_ms += engine.total_sim_ms();
        self.stats.launches += engine.launch_count();
        Ok(Value::vector(out.to_vec_f64()))
    }

    /// `t(X) %*% p` — the baseline's slow path.
    fn device_tmv(
        &mut self,
        x: &Rc<MatrixVal>,
        p: &[f64],
        line: usize,
    ) -> Result<Value, ScriptError> {
        let Some(gpu) = self.device() else {
            return Ok(Value::vector(host_tmv(&x.data, p)));
        };
        let xd = self.device_matrix(gpu, x).map_err(device_error(line))?;
        let run = || -> Result<_, DeviceError> {
            let pd = gpu.try_upload_f64("script.p", p)?;
            let out = gpu.try_alloc_f64("script.w", x.data.cols())?;
            let mut engine = BaselineEngine::try_new(gpu, Flavor::CuLibs)?;
            match &xd {
                DeviceMat::Sparse(xd) => engine.try_csrmv_t(xd, &pd, &out)?,
                DeviceMat::Dense(xd) => engine.try_gemv_t(xd, &pd, &out)?,
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

    /// Execute a `FusedPattern` node.
    fn eval_fused(&mut self, p: &FusedPattern, line: usize) -> Result<Value, ScriptError> {
        let x_val = self.eval(&p.x, line)?;

        // `t(p) %*% q` where "X" is actually a vector: a dot product that
        // the structural matcher could not distinguish — fall back.
        if let Value::Vector(pv) = &x_val {
            if !p.inner_mv && p.v.is_none() {
                let y = self.eval(&p.y, line)?;
                let q = y.as_vector().ok_or_else(|| ScriptError {
                    line,
                    message: "dot product needs two vectors".into(),
                })?;
                if pv.len() != q.len() {
                    return Err(ScriptError {
                        line,
                        message: "dot product length mismatch".into(),
                    });
                }
                self.charge_dot(q.len());
                let mut d = reference::dot(pv, q);
                if let Some(a) = &p.alpha {
                    d *= self.scalar_operand(a, line)?;
                }
                if let Some(z) = &p.z {
                    let beta = match &p.beta {
                        Some(b) => self.scalar_operand(b, line)?,
                        None => 1.0,
                    };
                    d += beta * self.scalar_operand(z, line)?;
                }
                return Ok(Value::Scalar(d));
            }
        }

        let Value::Matrix(x) = x_val else {
            return Err(ScriptError {
                line,
                message: format!("fused pattern over {}", x_val.type_name()),
            });
        };

        let mut alpha = match &p.alpha {
            Some(a) => self.scalar_operand(a, line)?,
            None => 1.0,
        };
        let y = self.eval(&p.y, line)?;
        let y = y
            .as_vector()
            .ok_or_else(|| ScriptError {
                line,
                message: format!("pattern operand y must be a vector, got {}", y.type_name()),
            })?
            .to_vec();

        // v: a vector, or a scalar that folds into alpha.
        let mut v: Option<Vec<f64>> = None;
        if let Some(ve) = &p.v {
            match self.eval(ve, line)? {
                Value::Scalar(s) => alpha *= s,
                Value::Vector(x) => v = Some((*x).clone()),
                other => {
                    return Err(ScriptError {
                        line,
                        message: format!(
                            "pattern operand v must be vector/scalar, got {}",
                            other.type_name()
                        ),
                    })
                }
            }
        }

        // beta / z, swapping if the script wrote `z * beta`.
        let (mut beta, mut z): (f64, Option<Vec<f64>>) = (0.0, None);
        if let Some(ze) = &p.z {
            let z_val = self.eval(ze, line)?;
            let b_val = match &p.beta {
                Some(be) => self.eval(be, line)?,
                None => Value::Scalar(1.0),
            };
            match (b_val, z_val) {
                (Value::Scalar(b), Value::Vector(zv)) => {
                    beta = b;
                    z = Some((*zv).clone());
                }
                (Value::Vector(zv), Value::Scalar(b)) => {
                    beta = b;
                    z = Some((*zv).clone());
                }
                (Value::Scalar(b1), Value::Scalar(b2)) => {
                    // scalar + scalar tail: fold into nothing vector-like —
                    // semantically this is a scalar added to a vector,
                    // which the dialect does not define.
                    return Err(ScriptError {
                        line,
                        message: format!(
                            "additive tail must involve a vector (got scalars {b1} and {b2})"
                        ),
                    });
                }
                (b, zv) => {
                    return Err(ScriptError {
                        line,
                        message: format!(
                            "additive tail beta*z of {} and {}",
                            b.type_name(),
                            zv.type_name()
                        ),
                    })
                }
            }
        }

        self.stats.fused_evals += 1;
        let spec = PatternSpec {
            alpha,
            with_v: v.is_some(),
            beta,
            with_z: z.is_some(),
        };

        // Host-only (or no GPU): reference evaluation.
        let Some(gpu) = self.device() else {
            let w = host_fused(
                &x.data,
                &spec,
                p.inner_mv,
                v.as_deref(),
                &y,
                z.as_deref(),
                line,
            )?;
            return Ok(Value::vector(w));
        };
        // `X (...)` takes `y` of column dimension; `X^T y` of row dimension.
        let y_dim = if p.inner_mv {
            x.data.cols()
        } else {
            x.data.rows()
        };
        check_dim(y.len(), y_dim, "y", line)?;

        let xd = self.device_matrix(gpu, &x).map_err(device_error(line))?;
        let run = || -> Result<_, DeviceError> {
            let mut ex = FusedExecutor::new(gpu);
            let yd = gpu.try_upload_f64("script.y", &y)?;
            let vd = v
                .as_ref()
                .map(|v| gpu.try_upload_f64("script.v", v))
                .transpose()?;
            let zd = z
                .as_ref()
                .map(|z| gpu.try_upload_f64("script.z", z))
                .transpose()?;
            let wd = gpu.try_alloc_f64("script.w", x.data.cols())?;
            match (&xd, p.inner_mv) {
                (DeviceMat::Sparse(xd), true) => {
                    ex.try_pattern_sparse(spec, xd, vd.as_ref(), &yd, zd.as_ref(), &wd)?
                }
                (DeviceMat::Dense(xd), true) => {
                    ex.try_pattern_dense(spec, xd, vd.as_ref(), &yd, zd.as_ref(), &wd)?
                }
                // alpha * X^T y (+ beta z as a follow-up axpy).
                (DeviceMat::Sparse(xd), false) => ex.try_xt_y_sparse(alpha, xd, &yd, &wd)?,
                (DeviceMat::Dense(xd), false) => {
                    ex.launches
                        .extend(fusedml_blas::try_gemv_t(gpu, xd, &yd, &wd)?);
                    if alpha != 1.0 {
                        ex.launches
                            .push(fusedml_blas::level1::try_scal(gpu, alpha, &wd)?);
                    }
                }
            }
            if let (Some(zd), true, false) = (&zd, spec.with_z, p.inner_mv) {
                ex.launches
                    .push(fusedml_blas::level1::try_axpy(gpu, beta, zd, &wd)?);
            }
            Ok((wd, ex.total_sim_ms(), ex.launch_count()))
        };
        let (wd, sim_ms, launches) = run().map_err(device_error(line))?;
        self.stats.sim_ms += sim_ms;
        self.stats.launches += launches;
        Ok(Value::vector(wd.to_vec_f64()))
    }

    fn scalar_operand(&mut self, e: &Expr, line: usize) -> Result<f64, ScriptError> {
        let v = self.eval(e, line)?;
        v.as_scalar().ok_or_else(|| ScriptError {
            line,
            message: format!("expected a scalar operand, got {}", v.type_name()),
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

fn check_dim(got: usize, want: usize, what: &str, line: usize) -> Result<(), ScriptError> {
    if got != want {
        return Err(ScriptError {
            line,
            message: format!("pattern operand {what}: length {got}, expected {want}"),
        });
    }
    Ok(())
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

fn host_mv(x: &HostMatrix, y: &[f64]) -> Vec<f64> {
    match x {
        HostMatrix::Sparse(x) => reference::csr_mv(x, y),
        HostMatrix::Dense(x) => reference::dense_mv(x, y),
    }
}

fn host_tmv(x: &HostMatrix, p: &[f64]) -> Vec<f64> {
    match x {
        HostMatrix::Sparse(x) => reference::csr_tmv(x, p),
        HostMatrix::Dense(x) => reference::dense_tmv(x, p),
    }
}

fn host_fused(
    x: &HostMatrix,
    spec: &PatternSpec,
    inner_mv: bool,
    v: Option<&[f64]>,
    y: &[f64],
    z: Option<&[f64]>,
    line: usize,
) -> Result<Vec<f64>, ScriptError> {
    if inner_mv {
        check_dim(y.len(), x.cols(), "y", line)?;
        Ok(match x {
            HostMatrix::Sparse(x) => reference::pattern_csr(spec.alpha, x, v, y, spec.beta, z),
            HostMatrix::Dense(x) => reference::pattern_dense(spec.alpha, x, v, y, spec.beta, z),
        })
    } else {
        check_dim(y.len(), x.rows(), "y", line)?;
        let mut w = host_tmv(x, y);
        reference::scal(spec.alpha, &mut w);
        if let Some(z) = z {
            check_dim(z.len(), x.cols(), "z", line)?;
            reference::axpy(spec.beta, z, &mut w);
        }
        Ok(w)
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
