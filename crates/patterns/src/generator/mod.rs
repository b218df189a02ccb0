//! SI pattern generators: the MA and reduced-MT fault models and the
//! paper's randomized experimental recipe.

mod ma;
mod mt;
mod random;
mod shorts_opens;

pub use ma::maximal_aggressor;
pub use mt::{reduced_mt, reduced_mt_estimate, MAX_LOCALITY};
pub use random::{
    generate_random, generate_random_packed, generate_random_with, RandomPatternConfig,
};
pub use shorts_opens::shorts_opens;
