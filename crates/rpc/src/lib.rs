//! RPC: the service boundary's wire protocol and client.
//!
//! The workspace is fully offline, so the stack is hand-rolled on
//! `std::net`: length-prefixed binary frames (the workspace codec, not an
//! external serializer) over blocking TCP, a thread per connection on the
//! server side, and a fixed-capacity connection pool on the client side.
//! See DESIGN.md §11 for the protocol and session model.

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;

pub use client::{is_admission_rejected, Client, ClientPool, PooledClient};
pub use proto::{
    read_frame, write_frame, ErrorCode, Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
