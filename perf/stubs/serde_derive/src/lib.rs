//! Offline stand-in for `serde_derive`. The stand-in `serde` implements
//! its traits for every type, so the derives have nothing to generate;
//! they exist so `#[derive(Serialize, Deserialize)]` and `#[serde(..)]`
//! attributes in the workspace compile unchanged.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
