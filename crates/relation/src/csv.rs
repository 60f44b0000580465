//! Minimal CSV reader/writer.
//!
//! The datasets the GDR paper evaluates on (hospital emergency visits, UCI
//! adult) are plain comma-separated files.  To keep the dependency footprint
//! to the approved offline crates, this module implements the small subset of
//! RFC 4180 the generators and examples need: double-quote quoting, embedded
//! commas/quotes/newlines inside quoted fields, and a header row.

use crate::error::RelationError;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;

/// Parses a CSV document (with header row) into a [`Table`].
///
/// Empty fields become [`crate::Value::Null`]; every other field is kept as a
/// string value, which is the representation the repair layer expects.
pub fn parse_csv(name: &str, text: &str) -> Result<Table> {
    let mut records = parse_records(text)?;
    if records.is_empty() {
        return Err(RelationError::Csv {
            line: 1,
            detail: "document has no header row".to_string(),
        });
    }
    let header = records.remove(0);
    let schema = Schema::new(&header);
    let mut table = Table::with_capacity(name, schema, records.len());
    for (i, record) in records.iter().enumerate() {
        table
            .push_text_row(record)
            .map_err(|e| RelationError::Csv {
                line: i + 2,
                detail: e.to_string(),
            })?;
    }
    Ok(table)
}

/// Serialises a table to CSV text (header row + one line per tuple).
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<&str> = table
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    write_record(&mut out, header.iter().map(|s| s.to_string()));
    for (_, tuple) in table.iter() {
        write_record(&mut out, tuple.iter().map(|v| v.render().into_owned()));
    }
    out
}

fn write_record<I: Iterator<Item = String>>(out: &mut String, fields: I) {
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if field.contains(',') || field.contains('"') || field.contains('\n') {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(&field);
        }
    }
    out.push('\n');
}

/// Splits CSV text into records of fields, honouring quoted fields.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    #[derive(PartialEq)]
    enum State {
        FieldStart,
        Unquoted,
        Quoted,
        QuoteInQuoted,
    }

    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut state = State::FieldStart;
    let mut line = 1usize;

    let push_field = |record: &mut Vec<String>, field: &mut String| {
        record.push(std::mem::take(field));
    };

    for ch in text.chars() {
        match state {
            State::FieldStart => match ch {
                '"' => state = State::Quoted,
                ',' => push_field(&mut record, &mut field),
                '\n' => {
                    push_field(&mut record, &mut field);
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push(std::mem::take(&mut record));
                    } else {
                        record.clear();
                    }
                    line += 1;
                }
                '\r' => {}
                c => {
                    field.push(c);
                    state = State::Unquoted;
                }
            },
            State::Unquoted => match ch {
                ',' => {
                    push_field(&mut record, &mut field);
                    state = State::FieldStart;
                }
                '\n' => {
                    push_field(&mut record, &mut field);
                    records.push(std::mem::take(&mut record));
                    state = State::FieldStart;
                    line += 1;
                }
                '\r' => {}
                '"' => {
                    return Err(RelationError::Csv {
                        line,
                        detail: "unexpected quote inside unquoted field".to_string(),
                    })
                }
                c => field.push(c),
            },
            State::Quoted => match ch {
                '"' => state = State::QuoteInQuoted,
                c => {
                    if c == '\n' {
                        line += 1;
                    }
                    field.push(c);
                }
            },
            State::QuoteInQuoted => match ch {
                '"' => {
                    field.push('"');
                    state = State::Quoted;
                }
                ',' => {
                    push_field(&mut record, &mut field);
                    state = State::FieldStart;
                }
                '\n' => {
                    push_field(&mut record, &mut field);
                    records.push(std::mem::take(&mut record));
                    state = State::FieldStart;
                    line += 1;
                }
                '\r' => {}
                _ => {
                    return Err(RelationError::Csv {
                        line,
                        detail: "unexpected character after closing quote".to_string(),
                    })
                }
            },
        }
    }

    match state {
        State::Quoted => {
            return Err(RelationError::Csv {
                line,
                detail: "unterminated quoted field".to_string(),
            })
        }
        State::FieldStart => {
            if !record.is_empty() {
                push_field(&mut record, &mut field);
                records.push(record);
            }
        }
        State::Unquoted | State::QuoteInQuoted => {
            push_field(&mut record, &mut field);
            records.push(record);
        }
    }

    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn parse_simple_document() {
        let table = parse_csv("t", "A,B\n1,x\n2,y\n").unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.schema().attr_id("B").unwrap(), 1);
        assert_eq!(table.cell(1, 1), &Value::from("y"));
    }

    #[test]
    fn parse_without_trailing_newline() {
        let table = parse_csv("t", "A,B\n1,x").unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(table.cell(0, 1), &Value::from("x"));
    }

    #[test]
    fn empty_fields_become_null() {
        let table = parse_csv("t", "A,B\n,x\n").unwrap();
        assert_eq!(table.cell(0, 0), &Value::Null);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let table = parse_csv("t", "A,B\n\"Fort, Wayne\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(table.cell(0, 0), &Value::from("Fort, Wayne"));
        assert_eq!(table.cell(0, 1), &Value::from("say \"hi\""));
    }

    #[test]
    fn quoted_fields_with_newlines() {
        let table = parse_csv("t", "A,B\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(table.cell(0, 0), &Value::from("line1\nline2"));
    }

    #[test]
    fn crlf_line_endings() {
        let table = parse_csv("t", "A,B\r\n1,x\r\n2,y\r\n").unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.cell(0, 0), &Value::from("1"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let table = parse_csv("t", "A,B\n1,x\n\n2,y\n").unwrap();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(matches!(parse_csv("t", ""), Err(RelationError::Csv { .. })));
    }

    #[test]
    fn ragged_rows_are_errors() {
        let err = parse_csv("t", "A,B\n1\n").unwrap_err();
        match err {
            RelationError::Csv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(parse_csv("t", "A\n\"oops\n").is_err());
    }

    #[test]
    fn stray_quote_is_an_error() {
        assert!(parse_csv("t", "A,B\nab\"c,d\n").is_err());
    }

    #[test]
    fn round_trip_preserves_content() {
        let source = "A,B,C\nFort Wayne,\"a,b\",\n1,\"quote\"\"d\",x\n";
        let table = parse_csv("t", source).unwrap();
        let text = to_csv(&table);
        let again = parse_csv("t", &text).unwrap();
        assert_eq!(table, again);
    }
}
