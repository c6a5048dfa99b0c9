//! Basic graph algorithms: connected components.

pub mod components;

pub use components::{connected_components, is_connected};
