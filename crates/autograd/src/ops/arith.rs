//! Elementwise and broadcast arithmetic.

use crate::tape::{Tape, Var};

impl Tape {
    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let (ga, gb) = (self.requires_grad(a), self.requires_grad(b));
        self.push_op(&[a, b], value, move |g, _vals, ctx| {
            if ga {
                ctx.accum(a, g.clone());
            }
            if gb {
                ctx.accum(b, g.clone());
            }
        })
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let (ga, gb) = (self.requires_grad(a), self.requires_grad(b));
        self.push_op(&[a, b], value, move |g, _vals, ctx| {
            if ga {
                ctx.accum(a, g.clone());
            }
            if gb {
                ctx.accum(b, g.scale(-1.0));
            }
        })
    }

    /// Elementwise (Hadamard) `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let (ga, gb) = (self.requires_grad(a), self.requires_grad(b));
        self.push_op(&[a, b], value, move |g, vals, ctx| {
            if ga {
                ctx.accum(a, g.mul(&vals[b.0]));
            }
            if gb {
                ctx.accum(b, g.mul(&vals[a.0]));
            }
        })
    }

    /// `x * s` for a compile-time scalar.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let value = self.value(x).scale(s);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, g.scale(s));
        })
    }

    /// `x + c` for a compile-time scalar.
    pub fn add_scalar(&mut self, x: Var, c: f32) -> Var {
        let value = self.value(x).map(|v| v + c);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, g.clone());
        })
    }

    /// Add a `1×C` bias row vector to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = self.value(x).add_row_broadcast(self.value(bias));
        self.push_op(&[x, bias], value, move |g, _vals, ctx| {
            ctx.accum(x, g.clone());
            ctx.accum(bias, g.col_sum());
        })
    }

    /// Scale each row of `x` by the matching entry of the `R×1` column `col`.
    pub fn mul_col(&mut self, x: Var, col: Var) -> Var {
        let value = self.value(x).mul_col_broadcast(self.value(col));
        let (gx, gcol) = (self.requires_grad(x), self.requires_grad(col));
        self.push_op(&[x, col], value, move |g, vals, ctx| {
            if gx {
                ctx.accum(x, g.mul_col_broadcast(&vals[col.0]));
            }
            if gcol {
                ctx.accum(col, g.mul(&vals[x.0]).row_sum());
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check_unary_pair;

    #[test]
    fn grad_add() {
        check_unary_pair(|t, a, b| t.add(a, b));
    }

    #[test]
    fn grad_sub() {
        check_unary_pair(|t, a, b| t.sub(a, b));
    }

    #[test]
    fn grad_mul() {
        check_unary_pair(|t, a, b| t.mul(a, b));
    }
}
