//! Derive macros for the offline `serde` stand-in.
//!
//! Implemented without `syn`/`quote` (unavailable offline): a small token
//! walker extracts the struct/enum shape, and the impls are emitted as
//! source strings. Supports exactly the shapes the repo derives on: named
//! structs, tuple structs, and enums with unit / tuple / named-field
//! variants, with plain (bound-free) type parameters.
//!
//! Two field attributes are understood, spelled as upstream serde spells
//! them, and only on the fields of a named struct:
//!
//! * `#[serde(default)]` — a missing key decodes as
//!   `Default::default()`. A present key decodes as without it: a
//!   wrong-typed value is still an error.
//! * `#[serde(skip_serializing_if = "path")]` — the field is not written
//!   when `path(&self.field)` is true. The others keep declaration order.
//!
//! Any other `serde` option, and a `#[serde(...)]` on a container, a
//! variant or a tuple field, stops the build with a message naming it:
//! nothing is silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Item {
    name: String,
    generics: Vec<String>,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

/// A named-struct field and its `#[serde(...)]` options.
#[derive(Debug)]
struct Field {
    name: String,
    /// `#[serde(default)]`.
    default: bool,
    /// `#[serde(skip_serializing_if = "path")]`: the path.
    skip_if: Option<String>,
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: VFields,
}

#[derive(Debug)]
enum VFields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

/// Derives `serde::Serialize` (offline stand-in).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize` (offline stand-in).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let container_attrs = skip_attrs_and_vis(&tokens, &mut i);
    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    refuse_attrs(&container_attrs, &format!("container `{name}`"));
    let generics = parse_generics(&tokens, &mut i);
    let kind = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_tuple_fields(g.stream()))
            }
            _ => Kind::UnitStruct,
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("enum body expected, got {other:?}"),
        },
        other => panic!("derive target must be struct or enum, got `{other}`"),
    };
    Item {
        name,
        generics,
        kind,
    }
}

/// Skips attributes and a visibility; returns the argument lists of the
/// `#[serde(...)]` attributes among them.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Vec<TokenStream> {
    let mut serde_args = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    let attr: Vec<TokenTree> = g.stream().into_iter().collect();
                    if matches!(attr.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde")
                    {
                        match &attr[1..] {
                            [TokenTree::Group(args)]
                                if args.delimiter() == Delimiter::Parenthesis =>
                            {
                                serde_args.push(args.stream());
                            }
                            _ => panic!("malformed attribute `#[{}]`", g.stream()),
                        }
                    }
                }
                *i += 2; // `#` plus the bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => return serde_args,
        }
    }
}

/// Stops the build if `#[serde(...)]` appears where no option is
/// implemented.
fn refuse_attrs(serde_args: &[TokenStream], place: &str) {
    if let Some(args) = serde_args.first() {
        panic!(
            "unsupported `#[serde({args})]` on {place}: `serde` options are implemented only on the fields of a named struct"
        );
    }
}

/// Reads a named-struct field's `#[serde(...)]` options.
fn field_attrs(name: String, serde_args: &[TokenStream]) -> Field {
    let mut field = Field {
        name,
        default: false,
        skip_if: None,
    };
    for args in serde_args {
        let tokens: Vec<TokenTree> = args.clone().into_iter().collect();
        for option in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            match option {
                [] => {}
                [TokenTree::Ident(id)] if id.to_string() == "default" && !field.default => {
                    field.default = true;
                }
                [TokenTree::Ident(id), TokenTree::Punct(eq), TokenTree::Literal(path)]
                    if id.to_string() == "skip_serializing_if"
                        && eq.as_char() == '='
                        && field.skip_if.is_none() =>
                {
                    let quoted = path.to_string();
                    let Some(path) = quoted.strip_prefix('"').and_then(|p| p.strip_suffix('"'))
                    else {
                        panic!(
                            "`skip_serializing_if` on field `{}` takes a string literal, got {quoted}",
                            field.name
                        );
                    };
                    field.skip_if = Some(path.to_string());
                }
                other => panic!(
                    "unsupported serde option `{}` on field `{}`: only `default` and `skip_serializing_if = \"path\"` are implemented, each at most once",
                    other.iter().cloned().collect::<TokenStream>(),
                    field.name
                ),
            }
        }
    }
    field
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("identifier expected, got {other:?}"),
    }
}

/// Parses `<A, B, ...>` if present; returns the type-parameter names.
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut params = Vec::new();
    match tokens.get(*i) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
        _ => return params,
    }
    *i += 1;
    let mut depth = 1usize;
    let mut expect_param = true;
    while depth > 0 {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 1 => {
                expect_param = true;
            }
            Some(TokenTree::Ident(id)) if depth == 1 && expect_param => {
                params.push(id.to_string());
                expect_param = false;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '\'' => {
                // Lifetime: skip its ident, and don't record a type param.
                *i += 1;
                expect_param = false;
            }
            Some(_) => {}
            None => panic!("unterminated generics"),
        }
        *i += 1;
    }
    params
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let serde_args = skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        fields.push(field_attrs(expect_ident(&tokens, &mut i), &serde_args));
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("`:` expected after field name, got {other:?}"),
        }
        skip_type(&tokens, &mut i);
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        refuse_attrs(&skip_attrs_and_vis(&tokens, &mut i), "a tuple field");
        if i >= tokens.len() {
            break; // a trailing comma
        }
        count += 1;
        skip_type(&tokens, &mut i);
    }
    count
}

/// Skips a field's type and the top-level (angle-depth 0) comma after it.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0usize;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let serde_args = skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        refuse_attrs(&serde_args, &format!("variant `{name}`"));
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                let fields = parse_named_fields(g.stream());
                if let Some(f) = fields.iter().find(|f| f.default || f.skip_if.is_some()) {
                    panic!(
                        "unsupported `#[serde(...)]` on field `{}` of variant `{name}`: `serde` options are implemented only on the fields of a named struct",
                        f.name
                    );
                }
                VFields::Named(fields.into_iter().map(|f| f.name).collect())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VFields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VFields::Unit,
        };
        // Skip an explicit discriminant and/or the separating comma.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------- codegen

fn impl_header(item: &Item, trait_name: &str) -> (String, String) {
    let bounds: Vec<String> = item
        .generics
        .iter()
        .map(|g| format!("{g}: ::serde::{trait_name}"))
        .collect();
    let params = if item.generics.is_empty() {
        String::new()
    } else {
        format!("<{}>", bounds.join(", "))
    };
    let args = if item.generics.is_empty() {
        String::new()
    } else {
        format!("<{}>", item.generics.join(", "))
    };
    (params, args)
}

fn gen_serialize(item: &Item) -> String {
    let (params, args) = impl_header(item, "Serialize");
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => "::serde::Value::Null".to_string(),
        Kind::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::TupleStruct(k) => {
            let elems: Vec<String> = (0..*k)
                .map(|j| format!("::serde::Serialize::to_value(&self.{j})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Kind::NamedStruct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    let n = &f.name;
                    let push = format!(
                        "fields.push((\"{n}\".to_string(), ::serde::Serialize::to_value(&self.{n})));"
                    );
                    match &f.skip_if {
                        Some(path) => format!("if !{path}(&self.{n}) {{ {push} }}"),
                        None => push,
                    }
                })
                .collect();
            format!(
                "let mut fields = ::std::vec::Vec::with_capacity({len}); {pushes} ::serde::Value::Object(fields)",
                len = fields.len()
            )
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        VFields::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string())"
                        ),
                        VFields::Tuple(1) => format!(
                            "{name}::{vn}(x0) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Serialize::to_value(x0))])"
                        ),
                        VFields::Tuple(k) => {
                            let binds: Vec<String> = (0..*k).map(|j| format!("x{j}")).collect();
                            let elems: Vec<String> = (0..*k)
                                .map(|j| format!("::serde::Serialize::to_value(x{j})"))
                                .collect();
                            format!(
                                "{name}::{vn}({b}) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Array(vec![{e}]))])",
                                b = binds.join(", "),
                                e = elems.join(", ")
                            )
                        }
                        VFields::Named(fields) => {
                            let binds = fields.join(", ");
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| format!(
                                    "(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"
                                ))
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Object(vec![{p}]))])",
                                p = pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl{params} ::serde::Serialize for {name}{args} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (params, args) = impl_header(item, "Deserialize");
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => format!(
            "match v {{ ::serde::Value::Null => Ok({name}), other => ::serde::de_err(\"unit struct {name}\", other) }}"
        ),
        Kind::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::TupleStruct(k) => {
            let elems: Vec<String> = (0..*k)
                .map(|j| format!("::serde::Deserialize::from_value(&items[{j}])?"))
                .collect();
            format!(
                "match v {{ ::serde::Value::Array(items) if items.len() == {k} => Ok({name}({e})), other => ::serde::de_err(\"tuple struct {name}\", other) }}",
                e = elems.join(", ")
            )
        }
        Kind::NamedStruct(fields) => {
            let inits: Vec<String> = fields.iter().map(|f| field_init(name, f)).collect();
            format!(
                "match v {{ ::serde::Value::Object(_) => Ok({name} {{ {i} }}), other => ::serde::de_err(\"struct {name}\", other) }}",
                i = inits.join(", ")
            )
        }
        Kind::Enum(variants) => gen_enum_deserialize(name, variants),
    };
    format!(
        "impl{params} ::serde::Deserialize for {name}{args} {{\n\
             fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
}

fn field_init(owner: &str, field: &Field) -> String {
    let n = &field.name;
    if field.default {
        format!(
            "{n}: match v.get(\"{n}\") {{ ::std::option::Option::Some(value) => ::serde::Deserialize::from_value(value)?, ::std::option::Option::None => ::std::default::Default::default() }}"
        )
    } else {
        format!(
            "{n}: ::serde::Deserialize::from_value(v.get(\"{n}\").ok_or_else(|| ::serde::DeError(format!(\"missing field {owner}.{n}\")))?)?"
        )
    }
}

fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.fields, VFields::Unit))
        .map(|v| format!("\"{vn}\" => Ok({name}::{vn})", vn = v.name))
        .collect();
    let data_arms: Vec<String> = variants
        .iter()
        .filter_map(|v| {
            let vn = &v.name;
            match &v.fields {
                VFields::Unit => None,
                VFields::Tuple(1) => Some(format!(
                    "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::from_value(inner)?))"
                )),
                VFields::Tuple(k) => {
                    let elems: Vec<String> = (0..*k)
                        .map(|j| format!("::serde::Deserialize::from_value(&items[{j}])?"))
                        .collect();
                    Some(format!(
                        "\"{vn}\" => match inner {{ ::serde::Value::Array(items) if items.len() == {k} => Ok({name}::{vn}({e})), other => ::serde::de_err(\"variant {name}::{vn}\", other) }}",
                        e = elems.join(", ")
                    ))
                }
                VFields::Named(fields) => {
                    let inits: Vec<String> = fields
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_value(inner.get(\"{f}\").ok_or_else(|| ::serde::DeError(format!(\"missing field {name}::{vn}.{f}\")))?)?"
                            )
                        })
                        .collect();
                    Some(format!(
                        "\"{vn}\" => match inner {{ ::serde::Value::Object(_) => Ok({name}::{vn} {{ {i} }}), other => ::serde::de_err(\"variant {name}::{vn}\", other) }}",
                        i = inits.join(", ")
                    ))
                }
            }
        })
        .collect();
    let str_arm = if unit_arms.is_empty() {
        String::new()
    } else {
        format!(
            "::serde::Value::Str(s) => match s.as_str() {{ {arms}, other => Err(::serde::DeError(format!(\"unknown variant {name}::{{other}}\"))) }},",
            arms = unit_arms.join(", ")
        )
    };
    let obj_arm = if data_arms.is_empty() {
        String::new()
    } else {
        format!(
            "::serde::Value::Object(fields) if fields.len() == 1 => {{ let (tag, inner) = &fields[0]; match tag.as_str() {{ {arms}, other => Err(::serde::DeError(format!(\"unknown variant {name}::{{other}}\"))) }} }},",
            arms = data_arms.join(", ")
        )
    };
    format!("match v {{ {str_arm} {obj_arm} other => ::serde::de_err(\"enum {name}\", other) }}")
}
