//! OpenQASM 2.0 export and import.
//!
//! OpenQASM is the "quantum assembly" format mentioned in Section II of the
//! paper and the interchange format accepted by the IBM Quantum Experience.
//! The exporter emits the subset of OpenQASM 2.0 corresponding to our gate
//! set. The importer ([`from_qasm`]) is a real OpenQASM 2.0 front-end rather
//! than a mirror of the exporter: it understands multiple named quantum and
//! classical registers, `pi`-expression gate angles (`rz(pi/4)`, `-pi/2`,
//! `3*pi/4`), whole-register broadcast (`h q;`), user `gate` definitions
//! (expanded inline), and the part of the qelib1 gate set that has an exact
//! representation in our gate enum. Every malformed input is reported as a
//! typed [`QuantumError::ParseQasmError`] carrying a line and column — the
//! importer never panics, which is enforced by the fuzz harness in the root
//! `fuzz_surfaces` test.
//!
//! # Supported subset
//!
//! Statements: the `OPENQASM 2.0;` header (optional), `include` (ignored),
//! `qreg`/`creg` declarations, `gate` definitions, gate applications,
//! `measure` (validated, then ignored — our circuits measure implicitly),
//! and `barrier` (validated, then ignored). `opaque`, `reset`, and `if` are
//! rejected with typed errors.
//!
//! Gates: `h x y z s sdg t tdg id` and `rz/u1/p` (all three are
//! `diag(1, e^{iθ})`, exactly our `Rz`), `cx/CX cz swap ccx`, plus the
//! qelib1 gates with exact Clifford+T+Rz bodies: `cy`, `ch`, `crz`, and
//! `cu1`/`cp` (decomposed inline; `cu1(pi)` is exactly `cz`). Gates that
//! have no exact form in our gate set (`rx`, `ry`, `u2`, `u3`, ...) are
//! rejected with a typed error naming the gate.

use std::collections::HashMap;
use std::rc::Rc;

use crate::{QuantumCircuit, QuantumError, QuantumGate};

/// Serializes a circuit as an OpenQASM 2.0 program. All qubits are measured
/// at the end into a classical register of the same size.
pub fn to_qasm(circuit: &QuantumCircuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    out.push_str(&format!("creg c[{}];\n", circuit.num_qubits()));
    for gate in circuit {
        out.push_str(&gate_to_qasm(gate));
        out.push('\n');
    }
    for qubit in 0..circuit.num_qubits() {
        out.push_str(&format!("measure q[{qubit}] -> c[{qubit}];\n"));
    }
    out
}

/// Like [`to_qasm`], but rejects gates that have no faithful OpenQASM 2.0
/// form instead of silently degrading them to comments.
///
/// [`to_qasm`] exports `mcx`/`mcz` gates as comment lines, so a re-import
/// silently *drops* them — a semantic loss that used to be observable only
/// by comparing gate counts. Callers that need a faithful round trip (the
/// shell's `qasm` command, file export) should use this variant and decompose
/// multi-controlled gates through the mapping crate first.
///
/// # Errors
///
/// Returns [`QuantumError::UnsupportedGate`] for `mcx` and `mcz` gates.
pub fn to_qasm_checked(circuit: &QuantumCircuit) -> Result<String, QuantumError> {
    for gate in circuit {
        if matches!(gate, QuantumGate::Mcx { .. } | QuantumGate::Mcz { .. }) {
            return Err(QuantumError::UnsupportedGate {
                gate: gate.name(),
                operation: "qasm export",
            });
        }
    }
    Ok(to_qasm(circuit))
}

fn gate_to_qasm(gate: &QuantumGate) -> String {
    match gate {
        QuantumGate::Rz { qubit, angle } => format!("rz({angle}) q[{qubit}];"),
        QuantumGate::Cx { control, target } => format!("cx q[{control}],q[{target}];"),
        QuantumGate::Cz { a, b } => format!("cz q[{a}],q[{b}];"),
        QuantumGate::Swap { a, b } => format!("swap q[{a}],q[{b}];"),
        QuantumGate::Ccx {
            control_a,
            control_b,
            target,
        } => format!("ccx q[{control_a}],q[{control_b}],q[{target}];"),
        QuantumGate::Mcx { controls, target } => {
            // Not a standard qelib gate; emitting a ccx chain is the mapping
            // crate's job, so export symbolically.
            let controls: Vec<String> = controls.iter().map(|q| format!("q[{q}]")).collect();
            format!("// mcx {} -> q[{target}];", controls.join(","))
        }
        QuantumGate::Mcz { qubits } => {
            let qubits: Vec<String> = qubits.iter().map(|q| format!("q[{q}]")).collect();
            format!("// mcz {};", qubits.join(","))
        }
        single => {
            let qubit = single.qubits()[0];
            format!("{} q[{qubit}];", single.name())
        }
    }
}

/// Maximum nesting depth of angle expressions (parentheses and unary minus);
/// deeper input is rejected with a typed error instead of overflowing the
/// parser's stack.
const MAX_ANGLE_DEPTH: usize = 128;
/// Maximum nesting depth of user `gate` expansion (a chain of definitions
/// each calling the previous one).
const MAX_GATE_DEPTH: usize = 64;
/// Hard cap on declared qubits, keeping hostile declarations from allocating.
const MAX_DECLARED_QUBITS: usize = 1 << 20;
/// Hard cap on the number of gates a program may expand to.
const MAX_PROGRAM_GATES: usize = 1 << 20;

/// Parses an OpenQASM 2.0 program into a circuit. See the [module
/// docs](self) for the supported subset. Qubits are numbered by declaration
/// order: the first `qreg` occupies indices `0..size`, the next continues
/// from there, and so on.
///
/// # Errors
///
/// Returns [`QuantumError::ParseQasmError`] with the line and column of the
/// offending token for any malformed or unsupported input; this function
/// never panics.
///
/// # Examples
///
/// ```
/// use qdaflow_quantum::qasm::from_qasm;
///
/// let circuit = from_qasm(
///     "OPENQASM 2.0;\n\
///      include \"qelib1.inc\";\n\
///      qreg a[1];\n\
///      qreg b[2];\n\
///      h b;              // broadcast over both qubits of b\n\
///      rz(pi/4) a[0];\n\
///      cx a[0], b[1];\n",
/// )
/// .unwrap();
/// assert_eq!(circuit.num_qubits(), 3);
/// assert_eq!(circuit.num_gates(), 4);
/// ```
pub fn from_qasm(source: &str) -> Result<QuantumCircuit, QuantumError> {
    let (tokens, end) = lex(source)?;
    Importer::new(tokens, end).run()
}

fn err_at(line: usize, column: usize, message: impl Into<String>) -> QuantumError {
    QuantumError::ParseQasmError {
        line,
        column,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(String),
    Str(String),
    Arrow,
    Sym(char),
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(name) => format!("identifier '{name}'"),
            Tok::Number(text) => format!("number '{text}'"),
            Tok::Str(_) => "string literal".to_owned(),
            Tok::Arrow => "'->'".to_owned(),
            Tok::Sym(c) => format!("'{c}'"),
        }
    }
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
    column: usize,
}

struct Scanner {
    chars: Vec<char>,
    index: usize,
    line: usize,
    column: usize,
}

impl Scanner {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.index).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.index + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.index += 1;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }
}

/// Tokenizes a source string, returning the tokens and the position just past
/// the end of input (for "unexpected end of input" diagnostics).
fn lex(source: &str) -> Result<(Vec<Token>, (usize, usize)), QuantumError> {
    let mut scanner = Scanner {
        chars: source.chars().collect(),
        index: 0,
        line: 1,
        column: 1,
    };
    let mut tokens = Vec::new();
    while let Some(c) = scanner.peek() {
        let (line, column) = (scanner.line, scanner.column);
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                scanner.bump();
            }
            '/' if scanner.peek_at(1) == Some('/') => {
                while let Some(consumed) = scanner.bump() {
                    if consumed == '\n' {
                        break;
                    }
                }
            }
            ';' | ',' | '(' | ')' | '[' | ']' | '{' | '}' | '+' | '*' | '/' | '=' => {
                scanner.bump();
                tokens.push(Token {
                    tok: Tok::Sym(c),
                    line,
                    column,
                });
            }
            '-' => {
                scanner.bump();
                if scanner.peek() == Some('>') {
                    scanner.bump();
                    tokens.push(Token {
                        tok: Tok::Arrow,
                        line,
                        column,
                    });
                } else {
                    tokens.push(Token {
                        tok: Tok::Sym('-'),
                        line,
                        column,
                    });
                }
            }
            '"' => {
                scanner.bump();
                let mut text = String::new();
                loop {
                    match scanner.bump() {
                        Some('"') => break,
                        Some(inner) => text.push(inner),
                        None => {
                            return Err(err_at(line, column, "unterminated string literal"));
                        }
                    }
                }
                tokens.push(Token {
                    tok: Tok::Str(text),
                    line,
                    column,
                });
            }
            digit if digit.is_ascii_digit() || digit == '.' => {
                let mut text = String::new();
                while let Some(next) = scanner.peek() {
                    if next.is_ascii_digit() || next == '.' {
                        text.push(next);
                        scanner.bump();
                    } else {
                        break;
                    }
                }
                // Optional exponent, only when followed by digits.
                if matches!(scanner.peek(), Some('e' | 'E')) {
                    let after_sign = match scanner.peek_at(1) {
                        Some('+' | '-') => 2,
                        _ => 1,
                    };
                    if scanner
                        .peek_at(after_sign)
                        .is_some_and(|d| d.is_ascii_digit())
                    {
                        for _ in 0..after_sign {
                            text.push(scanner.bump().expect("peeked"));
                        }
                        while let Some(next) = scanner.peek() {
                            if next.is_ascii_digit() {
                                text.push(next);
                                scanner.bump();
                            } else {
                                break;
                            }
                        }
                    }
                }
                tokens.push(Token {
                    tok: Tok::Number(text),
                    line,
                    column,
                });
            }
            alpha if alpha.is_ascii_alphabetic() || alpha == '_' => {
                let mut text = String::new();
                while let Some(next) = scanner.peek() {
                    if next.is_ascii_alphanumeric() || next == '_' {
                        text.push(next);
                        scanner.bump();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    tok: Tok::Ident(text),
                    line,
                    column,
                });
            }
            other => {
                return Err(err_at(
                    line,
                    column,
                    format!("unexpected character '{other}'"),
                ));
            }
        }
    }
    Ok((tokens, (scanner.line, scanner.column)))
}

// ---------------------------------------------------------------------------
// Angle expressions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AngleExpr {
    Number(f64),
    Pi,
    Param(String),
    Neg(Box<AngleExpr>),
    Binary(char, Box<AngleExpr>, Box<AngleExpr>),
}

impl AngleExpr {
    /// Evaluates the expression; `params` binds formal gate parameters.
    /// Depth is bounded by [`MAX_ANGLE_DEPTH`], so recursion is safe.
    fn eval(&self, params: &HashMap<String, f64>) -> Result<f64, String> {
        match self {
            AngleExpr::Number(value) => Ok(*value),
            AngleExpr::Pi => Ok(std::f64::consts::PI),
            AngleExpr::Param(name) => params
                .get(name)
                .copied()
                .ok_or_else(|| format!("unknown parameter '{name}'")),
            AngleExpr::Neg(inner) => Ok(-inner.eval(params)?),
            AngleExpr::Binary(op, lhs, rhs) => {
                let (a, b) = (lhs.eval(params)?, rhs.eval(params)?);
                match op {
                    '+' => Ok(a + b),
                    '-' => Ok(a - b),
                    '*' => Ok(a * b),
                    '/' => {
                        if b == 0.0 {
                            Err("division by zero in angle expression".to_owned())
                        } else {
                            Ok(a / b)
                        }
                    }
                    other => Err(format!("unsupported operator '{other}'")),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct RegInfo {
    offset: usize,
    size: usize,
}

#[derive(Debug)]
struct BodyStmt {
    name: String,
    line: usize,
    column: usize,
    angles: Vec<AngleExpr>,
    args: Vec<String>,
}

#[derive(Debug)]
struct GateDef {
    params: Vec<String>,
    args: Vec<String>,
    body: Vec<BodyStmt>,
}

/// A resolved gate argument: a single qubit or a whole register.
#[derive(Debug, Clone, Copy)]
enum Arg {
    Single(usize),
    Whole(RegInfo),
}

struct Importer {
    tokens: Vec<Token>,
    position: usize,
    end: (usize, usize),
    qregs: HashMap<String, RegInfo>,
    cregs: HashMap<String, usize>,
    defs: HashMap<String, Rc<GateDef>>,
    num_qubits: usize,
    ops: Vec<(QuantumGate, usize, usize)>,
}

const UNSUPPORTED_GATES: &[&str] = &[
    "u", "u2", "u3", "rx", "ry", "sx", "sxdg", "csx", "cu3", "cu", "crx", "cry", "cswap", "rxx",
    "rzz", "u0",
];

fn is_builtin_gate(name: &str) -> bool {
    matches!(
        name,
        "id" | "h"
            | "x"
            | "y"
            | "z"
            | "s"
            | "sdg"
            | "t"
            | "tdg"
            | "rz"
            | "u1"
            | "p"
            | "cx"
            | "CX"
            | "cz"
            | "cy"
            | "ch"
            | "swap"
            | "ccx"
            | "crz"
            | "cu1"
            | "cp"
    )
}

impl Importer {
    fn new(tokens: Vec<Token>, end: (usize, usize)) -> Self {
        Self {
            tokens,
            position: 0,
            end,
            qregs: HashMap::new(),
            cregs: HashMap::new(),
            defs: HashMap::new(),
            num_qubits: 0,
            ops: Vec::new(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.position)
    }

    fn next(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.position).cloned();
        if token.is_some() {
            self.position += 1;
        }
        token
    }

    /// Position of the next token (or end of input) for diagnostics.
    fn here(&self) -> (usize, usize) {
        self.peek()
            .map_or(self.end, |token| (token.line, token.column))
    }

    fn error_here(&self, message: impl Into<String>) -> QuantumError {
        let (line, column) = self.here();
        err_at(line, column, message)
    }

    fn expect_sym(&mut self, symbol: char) -> Result<(), QuantumError> {
        match self.peek() {
            Some(token) if token.tok == Tok::Sym(symbol) => {
                self.next();
                Ok(())
            }
            Some(token) => Err(err_at(
                token.line,
                token.column,
                format!("expected '{symbol}', found {}", token.tok.describe()),
            )),
            None => Err(self.error_here(format!("expected '{symbol}', found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<(String, usize, usize), QuantumError> {
        match self.peek() {
            Some(token) => {
                if let Tok::Ident(name) = &token.tok {
                    let out = (name.clone(), token.line, token.column);
                    self.next();
                    Ok(out)
                } else {
                    Err(err_at(
                        token.line,
                        token.column,
                        format!("expected an identifier, found {}", token.tok.describe()),
                    ))
                }
            }
            None => Err(self.error_here("expected an identifier, found end of input")),
        }
    }

    fn expect_integer(&mut self) -> Result<(usize, usize, usize), QuantumError> {
        match self.peek() {
            Some(token) => {
                let (line, column) = (token.line, token.column);
                if let Tok::Number(text) = &token.tok {
                    if text.chars().all(|c| c.is_ascii_digit()) && !text.is_empty() {
                        let value: usize = text.parse().map_err(|_| {
                            err_at(line, column, format!("integer '{text}' is too large"))
                        })?;
                        self.next();
                        return Ok((value, line, column));
                    }
                    Err(err_at(
                        line,
                        column,
                        format!("expected an integer, found number '{text}'"),
                    ))
                } else {
                    Err(err_at(
                        line,
                        column,
                        format!("expected an integer, found {}", token.tok.describe()),
                    ))
                }
            }
            None => Err(self.error_here("expected an integer, found end of input")),
        }
    }

    fn run(mut self) -> Result<QuantumCircuit, QuantumError> {
        // Optional `OPENQASM 2.0;` header (only valid as the first statement).
        if let Some(token) = self.peek() {
            if token.tok == Tok::Ident("OPENQASM".to_owned()) {
                self.next();
                let version = match self.next() {
                    Some(Token {
                        tok: Tok::Number(text),
                        line,
                        column,
                    }) => (text, line, column),
                    Some(token) => {
                        return Err(err_at(
                            token.line,
                            token.column,
                            format!("expected a version number, found {}", token.tok.describe()),
                        ));
                    }
                    None => {
                        return Err(self.error_here("expected a version number, found end of input"))
                    }
                };
                let (text, line, column) = version;
                if text != "2" && text != "2.0" {
                    return Err(err_at(
                        line,
                        column,
                        format!("unsupported OpenQASM version '{text}' (only 2.0 is supported)"),
                    ));
                }
                self.expect_sym(';')?;
            }
        }
        while self.peek().is_some() {
            self.parse_statement()?;
        }
        if self.num_qubits == 0 {
            return Err(err_at(0, 0, "missing qreg declaration"));
        }
        let mut circuit = QuantumCircuit::new(self.num_qubits);
        for (gate, line, column) in self.ops {
            circuit
                .push(gate)
                .map_err(|err| err_at(line, column, err.to_string()))?;
        }
        Ok(circuit)
    }

    fn parse_statement(&mut self) -> Result<(), QuantumError> {
        let (name, line, column) = match self.peek() {
            Some(token) => {
                if let Tok::Ident(name) = &token.tok {
                    (name.clone(), token.line, token.column)
                } else {
                    return Err(err_at(
                        token.line,
                        token.column,
                        format!("expected a statement, found {}", token.tok.describe()),
                    ));
                }
            }
            None => return Ok(()),
        };
        match name.as_str() {
            "OPENQASM" => Err(err_at(
                line,
                column,
                "OPENQASM header must be the first statement",
            )),
            "include" => {
                self.next();
                match self.next() {
                    Some(Token {
                        tok: Tok::Str(_), ..
                    }) => {}
                    Some(token) => {
                        return Err(err_at(
                            token.line,
                            token.column,
                            format!(
                                "expected a quoted file name, found {}",
                                token.tok.describe()
                            ),
                        ));
                    }
                    None => {
                        return Err(
                            self.error_here("expected a quoted file name, found end of input")
                        )
                    }
                }
                self.expect_sym(';')
            }
            "qreg" => self.parse_register_decl(true),
            "creg" => self.parse_register_decl(false),
            "gate" => self.parse_gate_def(),
            "measure" => self.parse_measure(),
            "barrier" => self.parse_barrier(),
            "opaque" => Err(err_at(
                line,
                column,
                "opaque gate declarations are not supported",
            )),
            "reset" => Err(err_at(line, column, "reset statements are not supported")),
            "if" => Err(err_at(line, column, "if statements are not supported")),
            _ => self.parse_application(),
        }
    }

    fn check_fresh_name(&self, name: &str, line: usize, column: usize) -> Result<(), QuantumError> {
        if self.qregs.contains_key(name) || self.cregs.contains_key(name) {
            return Err(err_at(
                line,
                column,
                format!("identifier '{name}' is already declared as a register"),
            ));
        }
        if self.defs.contains_key(name) {
            return Err(err_at(
                line,
                column,
                format!("identifier '{name}' is already declared as a gate"),
            ));
        }
        Ok(())
    }

    fn parse_register_decl(&mut self, quantum: bool) -> Result<(), QuantumError> {
        self.next(); // the qreg/creg keyword
        let (name, name_line, name_column) = self.expect_ident()?;
        self.check_fresh_name(&name, name_line, name_column)?;
        self.expect_sym('[')?;
        let (size, size_line, size_column) = self.expect_integer()?;
        if size == 0 {
            return Err(err_at(
                size_line,
                size_column,
                format!("register '{name}' must have at least one bit"),
            ));
        }
        self.expect_sym(']')?;
        self.expect_sym(';')?;
        if quantum {
            if size > MAX_DECLARED_QUBITS || self.num_qubits + size > MAX_DECLARED_QUBITS {
                return Err(err_at(
                    size_line,
                    size_column,
                    format!("program declares more than {MAX_DECLARED_QUBITS} qubits"),
                ));
            }
            let info = RegInfo {
                offset: self.num_qubits,
                size,
            };
            self.num_qubits += size;
            self.qregs.insert(name, info);
        } else {
            self.cregs.insert(name, size);
        }
        Ok(())
    }

    // -- angle expressions --------------------------------------------------

    fn parse_angle_list(
        &mut self,
        params: Option<&[String]>,
    ) -> Result<Vec<AngleExpr>, QuantumError> {
        // Caller has seen '('.
        self.expect_sym('(')?;
        let mut exprs = Vec::new();
        if self.peek().map(|t| &t.tok) != Some(&Tok::Sym(')')) {
            loop {
                exprs.push(self.parse_angle_sum(params, 0)?);
                if self.peek().map(|t| &t.tok) == Some(&Tok::Sym(',')) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(')')?;
        Ok(exprs)
    }

    fn parse_angle_sum(
        &mut self,
        params: Option<&[String]>,
        depth: usize,
    ) -> Result<AngleExpr, QuantumError> {
        let mut lhs = self.parse_angle_product(params, depth)?;
        while let Some(&Tok::Sym(op @ ('+' | '-'))) = self.peek().map(|t| &t.tok) {
            self.next();
            let rhs = self.parse_angle_product(params, depth)?;
            lhs = AngleExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_angle_product(
        &mut self,
        params: Option<&[String]>,
        depth: usize,
    ) -> Result<AngleExpr, QuantumError> {
        let mut lhs = self.parse_angle_factor(params, depth)?;
        while let Some(&Tok::Sym(op @ ('*' | '/'))) = self.peek().map(|t| &t.tok) {
            self.next();
            let rhs = self.parse_angle_factor(params, depth)?;
            lhs = AngleExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_angle_factor(
        &mut self,
        params: Option<&[String]>,
        depth: usize,
    ) -> Result<AngleExpr, QuantumError> {
        if depth >= MAX_ANGLE_DEPTH {
            return Err(self.error_here(format!(
                "angle expression nests deeper than {MAX_ANGLE_DEPTH} levels"
            )));
        }
        match self.next() {
            Some(Token {
                tok: Tok::Sym('-'), ..
            }) => Ok(AngleExpr::Neg(Box::new(
                self.parse_angle_factor(params, depth + 1)?,
            ))),
            Some(Token {
                tok: Tok::Sym('('), ..
            }) => {
                let inner = self.parse_angle_sum(params, depth + 1)?;
                self.expect_sym(')')?;
                Ok(inner)
            }
            Some(Token {
                tok: Tok::Number(text),
                line,
                column,
            }) => text
                .parse::<f64>()
                .map(AngleExpr::Number)
                .map_err(|_| err_at(line, column, format!("malformed number '{text}'"))),
            Some(Token {
                tok: Tok::Ident(name),
                line,
                column,
            }) => {
                if name == "pi" || name == "PI" {
                    Ok(AngleExpr::Pi)
                } else if params.is_some_and(|list| list.contains(&name)) {
                    Ok(AngleExpr::Param(name))
                } else {
                    Err(err_at(
                        line,
                        column,
                        format!("unknown identifier '{name}' in angle expression"),
                    ))
                }
            }
            Some(token) => Err(err_at(
                token.line,
                token.column,
                format!(
                    "expected an angle expression, found {}",
                    token.tok.describe()
                ),
            )),
            None => Err(self.error_here("expected an angle expression, found end of input")),
        }
    }

    /// Evaluates already-parsed angle expressions to finite values.
    fn eval_angles(
        exprs: &[AngleExpr],
        env: &HashMap<String, f64>,
        line: usize,
        column: usize,
    ) -> Result<Vec<f64>, QuantumError> {
        exprs
            .iter()
            .map(|expr| {
                let value = expr.eval(env).map_err(|msg| err_at(line, column, msg))?;
                if value.is_finite() {
                    Ok(value)
                } else {
                    Err(err_at(
                        line,
                        column,
                        "angle expression does not evaluate to a finite number",
                    ))
                }
            })
            .collect()
    }

    // -- gate definitions ---------------------------------------------------

    fn parse_gate_def(&mut self) -> Result<(), QuantumError> {
        self.next(); // `gate`
        let (name, name_line, name_column) = self.expect_ident()?;
        if is_builtin_gate(&name) || UNSUPPORTED_GATES.contains(&name.as_str()) {
            return Err(err_at(
                name_line,
                name_column,
                format!("cannot redefine built-in gate '{name}'"),
            ));
        }
        self.check_fresh_name(&name, name_line, name_column)?;
        let mut params = Vec::new();
        if self.peek().map(|t| &t.tok) == Some(&Tok::Sym('(')) {
            self.next();
            if self.peek().map(|t| &t.tok) != Some(&Tok::Sym(')')) {
                loop {
                    let (param, line, column) = self.expect_ident()?;
                    if params.contains(&param) {
                        return Err(err_at(
                            line,
                            column,
                            format!("duplicate parameter name '{param}'"),
                        ));
                    }
                    params.push(param);
                    if self.peek().map(|t| &t.tok) == Some(&Tok::Sym(',')) {
                        self.next();
                    } else {
                        break;
                    }
                }
            }
            self.expect_sym(')')?;
        }
        let mut args = Vec::new();
        loop {
            let (arg, line, column) = self.expect_ident()?;
            if args.contains(&arg) || params.contains(&arg) {
                return Err(err_at(
                    line,
                    column,
                    format!("duplicate argument name '{arg}'"),
                ));
            }
            args.push(arg);
            if self.peek().map(|t| &t.tok) == Some(&Tok::Sym(',')) {
                self.next();
            } else {
                break;
            }
        }
        self.expect_sym('{')?;
        let mut body = Vec::new();
        while self.peek().map(|t| &t.tok) != Some(&Tok::Sym('}')) {
            let (stmt_name, stmt_line, stmt_column) = self.expect_ident()?;
            if stmt_name == "barrier" {
                // Validate arguments, emit nothing.
                loop {
                    let (arg, line, column) = self.expect_ident()?;
                    if !args.contains(&arg) {
                        return Err(err_at(
                            line,
                            column,
                            format!("unknown qubit argument '{arg}' in gate body"),
                        ));
                    }
                    if self.peek().map(|t| &t.tok) == Some(&Tok::Sym(',')) {
                        self.next();
                    } else {
                        break;
                    }
                }
                self.expect_sym(';')?;
                continue;
            }
            // Body gates must already be resolvable, which statically rules
            // out recursive (and mutually recursive) definitions.
            if !is_builtin_gate(&stmt_name) && !self.defs.contains_key(&stmt_name) {
                let message = if UNSUPPORTED_GATES.contains(&stmt_name.as_str()) {
                    format!("gate '{stmt_name}' is outside the supported OpenQASM subset")
                } else if stmt_name == name {
                    format!("gate '{stmt_name}' cannot call itself")
                } else {
                    format!("unknown gate '{stmt_name}' in gate body")
                };
                return Err(err_at(stmt_line, stmt_column, message));
            }
            let angles = if self.peek().map(|t| &t.tok) == Some(&Tok::Sym('(')) {
                self.parse_angle_list(Some(&params))?
            } else {
                Vec::new()
            };
            let mut stmt_args = Vec::new();
            loop {
                let (arg, line, column) = self.expect_ident()?;
                if self.peek().map(|t| &t.tok) == Some(&Tok::Sym('[')) {
                    return Err(err_at(
                        line,
                        column,
                        "indexed qubits are not allowed inside gate bodies",
                    ));
                }
                if !args.contains(&arg) {
                    return Err(err_at(
                        line,
                        column,
                        format!("unknown qubit argument '{arg}' in gate body"),
                    ));
                }
                stmt_args.push(arg);
                if self.peek().map(|t| &t.tok) == Some(&Tok::Sym(',')) {
                    self.next();
                } else {
                    break;
                }
            }
            self.expect_sym(';')?;
            body.push(BodyStmt {
                name: stmt_name,
                line: stmt_line,
                column: stmt_column,
                angles,
                args: stmt_args,
            });
        }
        self.expect_sym('}')?;
        self.defs
            .insert(name, Rc::new(GateDef { params, args, body }));
        Ok(())
    }

    // -- measure / barrier --------------------------------------------------

    /// Parses `name` or `name[index]` against a register table, returning
    /// `(size-or-None-for-indexed, ...)` shaped as `Arg` for qregs.
    fn parse_qubit_arg(&mut self) -> Result<Arg, QuantumError> {
        let (name, line, column) = self.expect_ident()?;
        let info = *self
            .qregs
            .get(&name)
            .ok_or_else(|| err_at(line, column, format!("unknown register '{name}'")))?;
        if self.peek().map(|t| &t.tok) == Some(&Tok::Sym('[')) {
            self.next();
            let (index, index_line, index_column) = self.expect_integer()?;
            if index >= info.size {
                return Err(err_at(
                    index_line,
                    index_column,
                    format!(
                        "index {index} is out of range for register '{name}' of size {}",
                        info.size
                    ),
                ));
            }
            self.expect_sym(']')?;
            Ok(Arg::Single(info.offset + index))
        } else {
            Ok(Arg::Whole(info))
        }
    }

    fn parse_measure(&mut self) -> Result<(), QuantumError> {
        self.next(); // `measure`
        let (stmt_line, stmt_column) = self.here();
        let source = self.parse_qubit_arg()?;
        match self.next() {
            Some(Token {
                tok: Tok::Arrow, ..
            }) => {}
            Some(token) => {
                return Err(err_at(
                    token.line,
                    token.column,
                    format!("expected '->', found {}", token.tok.describe()),
                ));
            }
            None => return Err(self.error_here("expected '->', found end of input")),
        }
        let (name, line, column) = self.expect_ident()?;
        let creg_size = *self
            .cregs
            .get(&name)
            .ok_or_else(|| err_at(line, column, format!("unknown classical register '{name}'")))?;
        let target_indexed = if self.peek().map(|t| &t.tok) == Some(&Tok::Sym('[')) {
            self.next();
            let (index, index_line, index_column) = self.expect_integer()?;
            if index >= creg_size {
                return Err(err_at(
                    index_line,
                    index_column,
                    format!(
                        "index {index} is out of range for register '{name}' of size {creg_size}"
                    ),
                ));
            }
            self.expect_sym(']')?;
            true
        } else {
            false
        };
        self.expect_sym(';')?;
        match (source, target_indexed) {
            (Arg::Single(_), true) => Ok(()),
            (Arg::Whole(info), false) => {
                if info.size == creg_size {
                    Ok(())
                } else {
                    Err(err_at(
                        stmt_line,
                        stmt_column,
                        format!(
                            "measure register sizes do not match ({} vs {creg_size})",
                            info.size
                        ),
                    ))
                }
            }
            _ => Err(err_at(
                stmt_line,
                stmt_column,
                "measure arguments must both be indexed or both be whole registers",
            )),
        }
    }

    fn parse_barrier(&mut self) -> Result<(), QuantumError> {
        self.next(); // `barrier`
        if self.peek().map(|t| &t.tok) != Some(&Tok::Sym(';')) {
            loop {
                self.parse_qubit_arg()?;
                if self.peek().map(|t| &t.tok) == Some(&Tok::Sym(',')) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(';')
    }

    // -- gate application ---------------------------------------------------

    fn parse_application(&mut self) -> Result<(), QuantumError> {
        let (name, line, column) = self.expect_ident()?;
        let angles = if self.peek().map(|t| &t.tok) == Some(&Tok::Sym('(')) {
            let exprs = self.parse_angle_list(None)?;
            Self::eval_angles(&exprs, &HashMap::new(), line, column)?
        } else {
            Vec::new()
        };
        let mut args = Vec::new();
        loop {
            args.push(self.parse_qubit_arg()?);
            if self.peek().map(|t| &t.tok) == Some(&Tok::Sym(',')) {
                self.next();
            } else {
                break;
            }
        }
        self.expect_sym(';')?;
        // Whole-register arguments broadcast: all must share one size.
        let mut broadcast: Option<usize> = None;
        for arg in &args {
            if let Arg::Whole(info) = arg {
                match broadcast {
                    None => broadcast = Some(info.size),
                    Some(size) if size == info.size => {}
                    Some(size) => {
                        return Err(err_at(
                            line,
                            column,
                            format!(
                                "broadcast registers have mismatched sizes ({size} vs {})",
                                info.size
                            ),
                        ));
                    }
                }
            }
        }
        let repetitions = broadcast.unwrap_or(1);
        for step in 0..repetitions {
            let qubits: Vec<usize> = args
                .iter()
                .map(|arg| match arg {
                    Arg::Single(qubit) => *qubit,
                    Arg::Whole(info) => info.offset + step,
                })
                .collect();
            self.emit(&name, &angles, &qubits, line, column, 0)?;
        }
        Ok(())
    }

    fn push_op(
        &mut self,
        gate: QuantumGate,
        line: usize,
        column: usize,
    ) -> Result<(), QuantumError> {
        if self.ops.len() >= MAX_PROGRAM_GATES {
            return Err(err_at(
                line,
                column,
                format!("program expands to more than {MAX_PROGRAM_GATES} gates"),
            ));
        }
        self.ops.push((gate, line, column));
        Ok(())
    }

    /// Emits a named gate (builtin, decomposed, or user-defined) applied to
    /// already-resolved qubits. `depth` tracks user-gate expansion nesting.
    fn emit(
        &mut self,
        name: &str,
        angles: &[f64],
        qubits: &[usize],
        line: usize,
        column: usize,
        depth: usize,
    ) -> Result<(), QuantumError> {
        if depth > MAX_GATE_DEPTH {
            return Err(err_at(
                line,
                column,
                format!("gate expansion nests deeper than {MAX_GATE_DEPTH} levels"),
            ));
        }
        let arity = |expected_angles: usize, expected_qubits: usize| -> Result<(), QuantumError> {
            if angles.len() != expected_angles {
                return Err(err_at(
                    line,
                    column,
                    format!(
                        "gate '{name}' expects {expected_angles} parameter(s), found {}",
                        angles.len()
                    ),
                ));
            }
            if qubits.len() != expected_qubits {
                return Err(err_at(
                    line,
                    column,
                    format!(
                        "gate '{name}' expects {expected_qubits} qubit argument(s), found {}",
                        qubits.len()
                    ),
                ));
            }
            Ok(())
        };
        let single: Option<fn(usize) -> QuantumGate> = match name {
            "h" => Some(QuantumGate::H),
            "x" => Some(QuantumGate::X),
            "y" => Some(QuantumGate::Y),
            "z" => Some(QuantumGate::Z),
            "s" => Some(QuantumGate::S),
            "sdg" => Some(QuantumGate::Sdg),
            "t" => Some(QuantumGate::T),
            "tdg" => Some(QuantumGate::Tdg),
            _ => None,
        };
        if let Some(build) = single {
            arity(0, 1)?;
            return self.push_op(build(qubits[0]), line, column);
        }
        match name {
            "id" => {
                arity(0, 1)?;
                Ok(())
            }
            // Our Rz is diag(1, e^{iθ}), which is exactly qelib1's u1 — and
            // qelib1 defines rz and p in terms of u1, so all three coincide.
            "rz" | "u1" | "p" => {
                arity(1, 1)?;
                self.push_op(
                    QuantumGate::Rz {
                        qubit: qubits[0],
                        angle: angles[0],
                    },
                    line,
                    column,
                )
            }
            "cx" | "CX" => {
                arity(0, 2)?;
                self.push_op(
                    QuantumGate::Cx {
                        control: qubits[0],
                        target: qubits[1],
                    },
                    line,
                    column,
                )
            }
            "cz" => {
                arity(0, 2)?;
                self.push_op(
                    QuantumGate::Cz {
                        a: qubits[0],
                        b: qubits[1],
                    },
                    line,
                    column,
                )
            }
            "swap" => {
                arity(0, 2)?;
                self.push_op(
                    QuantumGate::Swap {
                        a: qubits[0],
                        b: qubits[1],
                    },
                    line,
                    column,
                )
            }
            "ccx" => {
                arity(0, 3)?;
                self.push_op(
                    QuantumGate::Ccx {
                        control_a: qubits[0],
                        control_b: qubits[1],
                        target: qubits[2],
                    },
                    line,
                    column,
                )
            }
            // qelib1: gate cy a,b { sdg b; cx a,b; s b; } — exact.
            "cy" => {
                arity(0, 2)?;
                let (a, b) = (qubits[0], qubits[1]);
                self.push_op(QuantumGate::Sdg(b), line, column)?;
                self.push_op(
                    QuantumGate::Cx {
                        control: a,
                        target: b,
                    },
                    line,
                    column,
                )?;
                self.push_op(QuantumGate::S(b), line, column)
            }
            // qelib1's exact Clifford+T body for controlled-H.
            "ch" => {
                arity(0, 2)?;
                let (a, b) = (qubits[0], qubits[1]);
                self.push_op(QuantumGate::H(b), line, column)?;
                self.push_op(QuantumGate::Sdg(b), line, column)?;
                self.push_op(
                    QuantumGate::Cx {
                        control: a,
                        target: b,
                    },
                    line,
                    column,
                )?;
                self.push_op(QuantumGate::H(b), line, column)?;
                self.push_op(QuantumGate::T(b), line, column)?;
                self.push_op(
                    QuantumGate::Cx {
                        control: a,
                        target: b,
                    },
                    line,
                    column,
                )?;
                self.push_op(QuantumGate::T(b), line, column)?;
                self.push_op(QuantumGate::H(b), line, column)?;
                self.push_op(QuantumGate::S(b), line, column)?;
                self.push_op(QuantumGate::X(b), line, column)?;
                self.push_op(QuantumGate::S(a), line, column)
            }
            // qelib1: gate crz(λ) a,b { u1(λ/2) b; cx a,b; u1(-λ/2) b; cx a,b; }
            "crz" => {
                arity(1, 2)?;
                let (a, b, lambda) = (qubits[0], qubits[1], angles[0]);
                self.push_op(
                    QuantumGate::Rz {
                        qubit: b,
                        angle: lambda / 2.0,
                    },
                    line,
                    column,
                )?;
                self.push_op(
                    QuantumGate::Cx {
                        control: a,
                        target: b,
                    },
                    line,
                    column,
                )?;
                self.push_op(
                    QuantumGate::Rz {
                        qubit: b,
                        angle: -lambda / 2.0,
                    },
                    line,
                    column,
                )?;
                self.push_op(
                    QuantumGate::Cx {
                        control: a,
                        target: b,
                    },
                    line,
                    column,
                )
            }
            // qelib1: gate cu1(λ) a,b { u1(λ/2) a; cx a,b; u1(-λ/2) b;
            // cx a,b; u1(λ/2) b; } — exactly diag(1,1,1,e^{iλ}).
            "cu1" | "cp" => {
                arity(1, 2)?;
                let (a, b, lambda) = (qubits[0], qubits[1], angles[0]);
                self.push_op(
                    QuantumGate::Rz {
                        qubit: a,
                        angle: lambda / 2.0,
                    },
                    line,
                    column,
                )?;
                self.push_op(
                    QuantumGate::Cx {
                        control: a,
                        target: b,
                    },
                    line,
                    column,
                )?;
                self.push_op(
                    QuantumGate::Rz {
                        qubit: b,
                        angle: -lambda / 2.0,
                    },
                    line,
                    column,
                )?;
                self.push_op(
                    QuantumGate::Cx {
                        control: a,
                        target: b,
                    },
                    line,
                    column,
                )?;
                self.push_op(
                    QuantumGate::Rz {
                        qubit: b,
                        angle: lambda / 2.0,
                    },
                    line,
                    column,
                )
            }
            _ => {
                if let Some(def) = self.defs.get(name).cloned() {
                    if angles.len() != def.params.len() {
                        return Err(err_at(
                            line,
                            column,
                            format!(
                                "gate '{name}' expects {} parameter(s), found {}",
                                def.params.len(),
                                angles.len()
                            ),
                        ));
                    }
                    if qubits.len() != def.args.len() {
                        return Err(err_at(
                            line,
                            column,
                            format!(
                                "gate '{name}' expects {} qubit argument(s), found {}",
                                def.args.len(),
                                qubits.len()
                            ),
                        ));
                    }
                    let env: HashMap<String, f64> = def
                        .params
                        .iter()
                        .cloned()
                        .zip(angles.iter().copied())
                        .collect();
                    let binding: HashMap<&str, usize> = def
                        .args
                        .iter()
                        .map(String::as_str)
                        .zip(qubits.iter().copied())
                        .collect();
                    for stmt in &def.body {
                        let values = Self::eval_angles(&stmt.angles, &env, stmt.line, stmt.column)?;
                        let resolved: Vec<usize> =
                            stmt.args.iter().map(|arg| binding[arg.as_str()]).collect();
                        self.emit(
                            &stmt.name,
                            &values,
                            &resolved,
                            stmt.line,
                            stmt.column,
                            depth + 1,
                        )?;
                    }
                    Ok(())
                } else if UNSUPPORTED_GATES.contains(&name) {
                    Err(err_at(
                        line,
                        column,
                        format!("gate '{name}' is outside the supported OpenQASM subset"),
                    ))
                } else {
                    Err(err_at(line, column, format!("unknown gate '{name}'")))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PreparedState;
    use crate::fusion::ExecConfig;
    use crate::plan::SoaStatevector;

    fn sample_circuit() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(3);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::T(1)).unwrap();
        circuit.push(QuantumGate::Sdg(2)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 2,
            })
            .unwrap();
        circuit
            .push(QuantumGate::Rz {
                qubit: 1,
                angle: 0.75,
            })
            .unwrap();
        circuit
            .push(QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            })
            .unwrap();
        circuit
    }

    #[test]
    fn export_contains_header_and_measurements() {
        let qasm = to_qasm(&sample_circuit());
        assert!(qasm.starts_with("OPENQASM 2.0;"));
        assert!(qasm.contains("qreg q[3];"));
        assert!(qasm.contains("h q[0];"));
        assert!(qasm.contains("measure q[2] -> c[2];"));
    }

    #[test]
    fn round_trip_preserves_the_circuit() {
        let original = sample_circuit();
        let qasm = to_qasm(&original);
        let parsed = from_qasm(&qasm).unwrap();
        assert_eq!(parsed.num_qubits(), original.num_qubits());
        assert_eq!(parsed.gates(), original.gates());
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let original = sample_circuit();
        let parsed = from_qasm(&to_qasm(&original)).unwrap();
        let a = SoaStatevector::simulate(&original, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&parsed, &ExecConfig::default()).unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        let missing_qreg = "OPENQASM 2.0;\nh q[0];";
        match from_qasm(missing_qreg) {
            Err(QuantumError::ParseQasmError { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad_gate = "qreg q[2];\nfoo q[0];";
        assert!(matches!(
            from_qasm(bad_gate),
            Err(QuantumError::ParseQasmError { line: 2, .. })
        ));
        let bad_qubit = "qreg q[2];\nh q[x];";
        assert!(from_qasm(bad_qubit).is_err());
        let out_of_range = "qreg q[1];\ncx q[0],q[1];";
        assert!(from_qasm(out_of_range).is_err());
        assert!(from_qasm("").is_err());
    }

    #[test]
    fn parse_errors_carry_columns() {
        // `r` is the third column on line 2.
        let unknown_register = "qreg q[2];\nh r[0];";
        assert_eq!(
            from_qasm(unknown_register).unwrap_err(),
            QuantumError::ParseQasmError {
                line: 2,
                column: 3,
                message: "unknown register 'r'".to_owned(),
            }
        );
    }

    #[test]
    fn comments_and_measurements_are_ignored() {
        let source = "qreg q[2];\ncreg c[2];\n// a comment\nmeasure q[0] -> c[0];\nh q[1];";
        let circuit = from_qasm(source).unwrap();
        assert_eq!(circuit.num_gates(), 1);
    }

    #[test]
    fn measure_statements_are_validated() {
        assert!(from_qasm("qreg q[2];\nmeasure q[0] -> c[0];").is_err());
        assert!(from_qasm("qreg q[2];\ncreg c[2];\nmeasure q[5] -> c[0];").is_err());
        assert!(from_qasm("qreg q[2];\ncreg c[3];\nmeasure q -> c;").is_err());
        assert!(from_qasm("qreg q[2];\ncreg c[2];\nmeasure q -> c;\nh q[0];").is_ok());
    }

    #[test]
    fn multiple_qregs_do_not_drop_gates() {
        // Regression: the old importer replaced the whole circuit on every
        // qreg line, silently discarding previously parsed gates.
        let source = "qreg a[1];\nh a[0];\nqreg b[2];\nx b[1];";
        let circuit = from_qasm(source).unwrap();
        assert_eq!(circuit.num_qubits(), 3);
        assert_eq!(circuit.gates(), &[QuantumGate::H(0), QuantumGate::X(2)]);
    }

    #[test]
    fn qubit_references_resolve_register_names() {
        // Regression: the old importer ignored register names, so `h r[0]`
        // parsed fine against `qreg q[2]`.
        let source = "qreg q[2];\nqreg r[2];\ncx r[0],q[1];";
        let circuit = from_qasm(source).unwrap();
        assert_eq!(
            circuit.gates(),
            &[QuantumGate::Cx {
                control: 2,
                target: 1
            }]
        );
        assert!(matches!(
            from_qasm("qreg q[2];\nh s[0];"),
            Err(QuantumError::ParseQasmError { line: 2, .. })
        ));
    }

    #[test]
    fn pi_expressions_evaluate() {
        use std::f64::consts::PI;
        let source = "qreg q[1];\nrz(pi/4) q[0];\nrz(-pi/2) q[0];\nrz(3*pi/4) q[0];\nrz(pi/4 + pi/4) q[0];\nrz((pi)) q[0];";
        let circuit = from_qasm(source).unwrap();
        let angles: Vec<f64> = circuit
            .gates()
            .iter()
            .map(|gate| match gate {
                QuantumGate::Rz { angle, .. } => *angle,
                other => panic!("unexpected gate {other:?}"),
            })
            .collect();
        let expected = [PI / 4.0, -PI / 2.0, 3.0 * PI / 4.0, PI / 4.0 + PI / 4.0, PI];
        for (actual, want) in angles.iter().zip(expected) {
            assert!((actual - want).abs() < 1e-15, "{actual} vs {want}");
        }
        assert!(from_qasm("qreg q[1];\nrz(pi/0) q[0];").is_err());
        assert!(from_qasm("qreg q[1];\nrz(tau) q[0];").is_err());
    }

    #[test]
    fn angle_nesting_is_depth_limited() {
        // A deeply parenthesized angle must produce a typed error, not a
        // stack overflow.
        let depth = 100_000;
        let source = format!(
            "qreg q[1];\nrz({}pi{}) q[0];",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        assert!(matches!(
            from_qasm(&source),
            Err(QuantumError::ParseQasmError { line: 2, .. })
        ));
        let negs = format!("qreg q[1];\nrz({}pi) q[0];", "-".repeat(depth));
        assert!(from_qasm(&negs).is_err());
        // Moderate nesting still parses.
        let ok = format!(
            "qreg q[1];\nrz({}pi{}) q[0];",
            "(".repeat(20),
            ")".repeat(20)
        );
        assert!(from_qasm(&ok).is_ok());
    }

    #[test]
    fn whole_register_arguments_broadcast() {
        let circuit = from_qasm("qreg q[3];\nh q;").unwrap();
        assert_eq!(
            circuit.gates(),
            &[QuantumGate::H(0), QuantumGate::H(1), QuantumGate::H(2)]
        );
        // Mixed single/whole arguments broadcast over the whole register.
        let circuit = from_qasm("qreg a[1];\nqreg b[2];\ncx a[0],b;").unwrap();
        assert_eq!(
            circuit.gates(),
            &[
                QuantumGate::Cx {
                    control: 0,
                    target: 1
                },
                QuantumGate::Cx {
                    control: 0,
                    target: 2
                },
            ]
        );
        assert!(from_qasm("qreg a[2];\nqreg b[3];\ncx a,b;").is_err());
    }

    #[test]
    fn user_gate_definitions_expand_inline() {
        let source = "qreg q[2];\n\
                      gate majority(theta) a,b { cx a,b; rz(theta/2) b; }\n\
                      majority(pi) q[0],q[1];\n\
                      majority(0.5) q[1],q[0];";
        let circuit = from_qasm(source).unwrap();
        assert_eq!(
            circuit.gates(),
            &[
                QuantumGate::Cx {
                    control: 0,
                    target: 1
                },
                QuantumGate::Rz {
                    qubit: 1,
                    angle: std::f64::consts::PI / 2.0
                },
                QuantumGate::Cx {
                    control: 1,
                    target: 0
                },
                QuantumGate::Rz {
                    qubit: 0,
                    angle: 0.25
                },
            ]
        );
    }

    #[test]
    fn user_gates_cannot_recurse() {
        let direct = "gate loop a { loop a; }\nqreg q[1];\nloop q[0];";
        assert!(matches!(
            from_qasm(direct),
            Err(QuantumError::ParseQasmError { line: 1, .. })
        ));
        // Forward references (which would enable mutual recursion) are also
        // rejected: body gates must already be defined.
        let forward = "gate a x { b x; }\ngate b x { a x; }\nqreg q[1];\na q[0];";
        assert!(from_qasm(forward).is_err());
    }

    #[test]
    fn qelib_decompositions_are_exact() {
        // cu1(pi) is exactly cz: compare statevectors on a full
        // superposition.
        let imported = from_qasm("qreg q[2];\nh q;\ncu1(pi) q[0],q[1];").unwrap();
        let mut reference = QuantumCircuit::new(2);
        reference.push(QuantumGate::H(0)).unwrap();
        reference.push(QuantumGate::H(1)).unwrap();
        reference.push(QuantumGate::Cz { a: 0, b: 1 }).unwrap();
        let a = SoaStatevector::simulate(&imported, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&reference, &ExecConfig::default()).unwrap();
        for (x, y) in a.to_amplitudes().iter().zip(b.to_amplitudes()) {
            assert!((x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12);
        }
        // cy = diag-basis conjugated cx: check against S-conjugation by
        // comparing with the explicit sdg/cx/s sequence.
        let cy = from_qasm("qreg q[2];\nh q;\ncy q[0],q[1];").unwrap();
        let mut expect = QuantumCircuit::new(2);
        for gate in [
            QuantumGate::H(0),
            QuantumGate::H(1),
            QuantumGate::Sdg(1),
            QuantumGate::Cx {
                control: 0,
                target: 1,
            },
            QuantumGate::S(1),
        ] {
            expect.push(gate).unwrap();
        }
        let a = SoaStatevector::simulate(&cy, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&expect, &ExecConfig::default()).unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    #[test]
    fn unsupported_gates_are_rejected_with_typed_errors() {
        for statement in ["rx(pi/2) q[0];", "u3(1,2,3) q[0];", "reset q[0];"] {
            let source = format!("qreg q[1];\n{statement}");
            assert!(matches!(
                from_qasm(&source),
                Err(QuantumError::ParseQasmError { line: 2, .. })
            ));
        }
    }

    #[test]
    fn register_declarations_are_validated() {
        assert!(from_qasm("qreg q[0];").is_err());
        assert!(from_qasm("qreg q[2];\nqreg q[2];").is_err());
        assert!(from_qasm("qreg q[99999999999];").is_err());
    }

    #[test]
    fn mcx_is_exported_as_comment() {
        let mut circuit = QuantumCircuit::new(4);
        circuit
            .push(QuantumGate::Mcx {
                controls: vec![0, 1, 2],
                target: 3,
            })
            .unwrap();
        let qasm = to_qasm(&circuit);
        assert!(qasm.contains("// mcx"));
        // The importer skips the comment, producing an empty circuit.
        assert_eq!(from_qasm(&qasm).unwrap().num_gates(), 0);
    }

    #[test]
    fn checked_export_rejects_symbolic_gates_with_a_typed_error() {
        let mut circuit = QuantumCircuit::new(4);
        circuit
            .push(QuantumGate::Mcz {
                qubits: vec![0, 1, 2],
            })
            .unwrap();
        assert_eq!(
            to_qasm_checked(&circuit).unwrap_err(),
            QuantumError::UnsupportedGate {
                gate: "mcz",
                operation: "qasm export",
            }
        );
        let mut with_mcx = QuantumCircuit::new(4);
        with_mcx
            .push(QuantumGate::Mcx {
                controls: vec![0, 1],
                target: 3,
            })
            .unwrap();
        assert!(matches!(
            to_qasm_checked(&with_mcx),
            Err(QuantumError::UnsupportedGate { gate: "mcx", .. })
        ));
    }

    #[test]
    fn checked_export_round_trips_faithful_circuits() {
        let original = sample_circuit();
        let exported = to_qasm_checked(&original).unwrap();
        assert_eq!(exported, to_qasm(&original));
        assert_eq!(from_qasm(&exported).unwrap().gates(), original.gates());
    }
}
