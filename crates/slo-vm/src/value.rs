//! Runtime values and their arithmetic semantics.

use slo_ir::{BinOp, CmpOp, Const};
use std::fmt;

/// A runtime value held in a virtual register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (all integer widths are computed in 64 bits).
    Int(i64),
    /// IEEE double (f32 values are widened).
    Float(f64),
    /// A pointer into the simulated address space (0 = null).
    Ptr(u64),
}

impl Value {
    /// The canonical null pointer.
    pub const NULL: Value = Value::Ptr(0);

    /// Interpret as an integer (pointers expose their address bits).
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i64,
            Value::Ptr(a) => a as i64,
        }
    }

    /// Interpret as a float.
    pub fn as_float(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
            Value::Ptr(a) => a as f64,
        }
    }

    /// Interpret as an address.
    pub fn as_ptr(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Float(v) => v as u64,
            Value::Ptr(a) => a,
        }
    }

    /// Truthiness for branches: nonzero / non-null.
    pub fn is_true(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
            Value::Ptr(a) => a != 0,
        }
    }

    /// Evaluate a binary operation with C-like promotion rules:
    /// float dominates int; pointer arithmetic is byte-granular.
    #[inline]
    pub fn bin(op: BinOp, a: Value, b: Value) -> Value {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(int_bin(op, x, y)),
            (Value::Float(x), Value::Float(y)) => float_bin(op, x, y),
            _ => Value::bin_promoted(op, a, b),
        }
    }

    /// [`Value::bin`] for pointer and mixed-type operands.
    #[inline(never)]
    fn bin_promoted(op: BinOp, a: Value, b: Value) -> Value {
        use BinOp::*;
        match (a, b) {
            (Value::Ptr(p), other) if matches!(op, Add | Sub) => {
                let d = other.as_int();
                match (op, other) {
                    (Add, _) => Value::Ptr(p.wrapping_add(d as u64)),
                    (_, Value::Ptr(q)) => Value::Int(p.wrapping_sub(q) as i64),
                    _ => Value::Ptr(p.wrapping_sub(d as u64)),
                }
            }
            (other, Value::Ptr(p)) if op == Add => {
                Value::Ptr(p.wrapping_add(other.as_int() as u64))
            }
            (Value::Float(_), _) | (_, Value::Float(_)) => {
                float_bin(op, a.as_float(), b.as_float())
            }
            _ => Value::Int(int_bin(op, a.as_int(), b.as_int())),
        }
    }

    /// Evaluate a comparison, producing `Int(0)` or `Int(1)`.
    pub fn cmp(op: CmpOp, a: Value, b: Value) -> Value {
        let r = match (a, b) {
            (Value::Float(_), _) | (_, Value::Float(_)) => {
                let x = a.as_float();
                let y = b.as_float();
                match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                }
            }
            (Value::Ptr(x), Value::Ptr(y)) => cmp_int(op, x as i64, y as i64),
            _ => cmp_int(op, a.as_int(), b.as_int()),
        };
        Value::Int(r as i64)
    }
}

#[inline]
fn int_bin(op: BinOp, x: i64, y: i64) -> i64 {
    use BinOp::*;
    match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        Rem => {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }
        And => x & y,
        Or => x | y,
        Xor => x ^ y,
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
    }
}

#[inline]
fn float_bin(op: BinOp, x: f64, y: f64) -> Value {
    use BinOp::*;
    match op {
        Add => Value::Float(x + y),
        Sub => Value::Float(x - y),
        Mul => Value::Float(x * y),
        Div => Value::Float(x / y),
        Rem => Value::Float(x % y),
        // bitwise on floats degrades to integer semantics
        _ => Value::Int(int_bin(op, x as i64, y as i64)),
    }
}

fn cmp_int(op: CmpOp, x: i64, y: i64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

impl From<Const> for Value {
    fn from(c: Const) -> Self {
        match c {
            Const::Int(v) => Value::Int(v),
            Const::Float(v) => Value::Float(v),
            Const::Null => Value::NULL,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ptr(a) => write!(f, "0x{a:x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn int_arithmetic() {
        assert_eq!(
            Value::bin(BinOp::Add, Value::Int(2), Value::Int(3)),
            Value::Int(5)
        );
        assert_eq!(
            Value::bin(BinOp::Mul, Value::Int(-4), Value::Int(3)),
            Value::Int(-12)
        );
        assert_eq!(
            Value::bin(BinOp::Div, Value::Int(7), Value::Int(2)),
            Value::Int(3)
        );
        // division by zero is defined as 0 in the VM
        assert_eq!(
            Value::bin(BinOp::Div, Value::Int(7), Value::Int(0)),
            Value::Int(0)
        );
        assert_eq!(
            Value::bin(BinOp::Rem, Value::Int(7), Value::Int(0)),
            Value::Int(0)
        );
    }

    #[test]
    fn float_promotion() {
        assert_eq!(
            Value::bin(BinOp::Add, Value::Int(1), Value::Float(0.5)),
            Value::Float(1.5)
        );
        assert_eq!(
            Value::bin(BinOp::Div, Value::Float(1.0), Value::Float(4.0)),
            Value::Float(0.25)
        );
    }

    #[test]
    fn pointer_arithmetic() {
        let p = Value::Ptr(0x1000);
        assert_eq!(Value::bin(BinOp::Add, p, Value::Int(8)), Value::Ptr(0x1008));
        assert_eq!(Value::bin(BinOp::Add, Value::Int(8), p), Value::Ptr(0x1008));
        assert_eq!(Value::bin(BinOp::Sub, p, Value::Int(8)), Value::Ptr(0xff8));
        assert_eq!(
            Value::bin(BinOp::Sub, Value::Ptr(0x1010), p),
            Value::Int(0x10)
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            Value::cmp(CmpOp::Lt, Value::Int(1), Value::Int(2)),
            Value::Int(1)
        );
        assert_eq!(
            Value::cmp(CmpOp::Ge, Value::Float(1.5), Value::Int(2)),
            Value::Int(0)
        );
        assert_eq!(
            Value::cmp(CmpOp::Eq, Value::Ptr(0), Value::NULL),
            Value::Int(1)
        );
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(-1).is_true());
        assert!(!Value::Int(0).is_true());
        assert!(!Value::Float(0.0).is_true());
        assert!(Value::Ptr(0x10).is_true());
        assert!(!Value::NULL.is_true());
    }

    #[test]
    fn const_conversion() {
        assert_eq!(Value::from(Const::Int(3)), Value::Int(3));
        assert_eq!(Value::from(Const::Float(2.5)), Value::Float(2.5));
        assert_eq!(Value::from(Const::Null), Value::NULL);
    }

    #[test]
    fn shifts_and_bitwise() {
        assert_eq!(
            Value::bin(BinOp::Shl, Value::Int(1), Value::Int(4)),
            Value::Int(16)
        );
        assert_eq!(
            Value::bin(BinOp::And, Value::Int(0b1100), Value::Int(0b1010)),
            Value::Int(0b1000)
        );
        assert_eq!(
            Value::bin(BinOp::Xor, Value::Int(0b1100), Value::Int(0b1010)),
            Value::Int(0b0110)
        );
    }

    /// The promotion rules of `Value::bin` as one match with no fast
    /// paths: the oracle for the split into inline and promoted paths.
    fn reference_bin(op: BinOp, a: Value, b: Value) -> Value {
        use BinOp::*;
        match (a, b) {
            (Value::Ptr(p), other) if matches!(op, Add | Sub) => {
                let d = other.as_int();
                match op {
                    Add => Value::Ptr(p.wrapping_add(d as u64)),
                    Sub => match other {
                        Value::Ptr(q) => Value::Int(p.wrapping_sub(q) as i64),
                        _ => Value::Ptr(p.wrapping_sub(d as u64)),
                    },
                    _ => unreachable!(),
                }
            }
            (other, Value::Ptr(p)) if op == Add => {
                Value::Ptr(p.wrapping_add(other.as_int() as u64))
            }
            (Value::Float(_), _) | (_, Value::Float(_)) => {
                let (x, y) = (a.as_float(), b.as_float());
                match op {
                    Add => Value::Float(x + y),
                    Sub => Value::Float(x - y),
                    Mul => Value::Float(x * y),
                    Div => Value::Float(x / y),
                    Rem => Value::Float(x % y),
                    _ => reference_bin(op, Value::Int(x as i64), Value::Int(y as i64)),
                }
            }
            _ => {
                let (x, y) = (a.as_int(), b.as_int());
                Value::Int(match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div if y == 0 => 0,
                    Div => x.wrapping_div(y),
                    Rem if y == 0 => 0,
                    Rem => x.wrapping_rem(y),
                    And => x & y,
                    Or => x | y,
                    Xor => x ^ y,
                    Shl => x.wrapping_shl(y as u32),
                    Shr => x.wrapping_shr(y as u32),
                })
            }
        }
    }

    /// Kind and raw bits, so NaN results compare equal to themselves.
    fn bits(v: Value) -> (u8, u64) {
        match v {
            Value::Int(x) => (0, x as u64),
            Value::Float(x) => (1, x.to_bits()),
            Value::Ptr(x) => (2, x),
        }
    }

    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-70i64..70).prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            (-70i64..70).prop_map(|x| Value::Float(x as f64 / 4.0)),
            any::<u64>().prop_map(Value::Ptr),
            (0u64..70).prop_map(Value::Ptr),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn bin_matches_reference(op in 0usize..10, a in any_value(), b in any_value()) {
            use BinOp::*;
            let op = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr][op];
            prop_assert_eq!(bits(Value::bin(op, a, b)), bits(reference_bin(op, a, b)));
        }
    }
}
