//! Legacy-VTK output of distributed meshes and nodal fields.
//!
//! Each rank writes its owned elements (with resolved corner values, so
//! hanging nodes display correctly); rank files form a simple series
//! `<base>_<rank>.vtk` loadable together in ParaView — the standard way
//! the original RHEA runs were inspected (cf. the paper's Figs. 1, 11,
//! 12 renderings).

use crate::extract::Mesh;
use std::io::Write;

/// Write this rank's portion of the mesh and the given nodal fields
/// (owned+ghost layout, ghosts current) as legacy VTK unstructured grid.
pub fn write_vtk(mesh: &Mesh, fields: &[(&str, &[f64])], path: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let ne = mesh.elements.len();
    writeln!(out, "# vtk DataFile Version 3.0")?;
    writeln!(out, "rhea-rs adaptive mesh")?;
    writeln!(out, "ASCII")?;
    writeln!(out, "DATASET UNSTRUCTURED_GRID")?;
    // Points: 8 per element (duplicated corners keep hanging-node values
    // exact without a conforming point index).
    writeln!(out, "POINTS {} double", 8 * ne)?;
    let s = octree::ROOT_LEN as f64;
    for o in &mesh.elements {
        let l = o.len();
        for c in 0..8u32 {
            let x = (o.x() + (c & 1) * l) as f64 / s * mesh.domain[0];
            let y = (o.y() + ((c >> 1) & 1) * l) as f64 / s * mesh.domain[1];
            let z = (o.z() + ((c >> 2) & 1) * l) as f64 / s * mesh.domain[2];
            writeln!(out, "{x} {y} {z}")?;
        }
    }
    writeln!(out, "CELLS {} {}", ne, 9 * ne)?;
    for e in 0..ne {
        // VTK_HEXAHEDRON ordering differs from z-order: swap corners 2↔3
        // and 6↔7.
        let b = 8 * e;
        writeln!(
            out,
            "8 {} {} {} {} {} {} {} {}",
            b,
            b + 1,
            b + 3,
            b + 2,
            b + 4,
            b + 5,
            b + 7,
            b + 6
        )?;
    }
    writeln!(out, "CELL_TYPES {ne}")?;
    for _ in 0..ne {
        writeln!(out, "12")?;
    }
    writeln!(out, "POINT_DATA {}", 8 * ne)?;
    for (name, values) in fields {
        assert_eq!(
            values.len(),
            mesh.n_local(),
            "field '{name}' must be in owned+ghost layout"
        );
        writeln!(out, "SCALARS {name} double 1")?;
        writeln!(out, "LOOKUP_TABLE default")?;
        for e in 0..ne {
            let cv = mesh.corner_values(e, values);
            for v in cv {
                writeln!(out, "{v}")?;
            }
        }
    }
    // Per-cell refinement level as cell data.
    writeln!(out, "CELL_DATA {ne}")?;
    writeln!(out, "SCALARS level int 1")?;
    writeln!(out, "LOOKUP_TABLE default")?;
    for o in &mesh.elements {
        writeln!(out, "{}", o.level())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_mesh;
    use octree::parallel::DistOctree;
    use scomm::spmd;

    /// A path under the temp directory, unique to this test process.
    fn temp_path(name: &str) -> String {
        let file = format!("rhea_vtk_{}_{name}.vtk", std::process::id());
        std::env::temp_dir().join(file).display().to_string()
    }

    #[test]
    fn vtk_output_is_well_formed() {
        spmd::run(2, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[0] < 0.3);
            t.balance(octree::balance::BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let mut f = vec![0.0; m.n_local()];
            for d in 0..m.n_owned {
                f[d] = m.dof_coords(d)[0];
            }
            m.exchange.exchange(c, &mut f, m.n_owned);
            let path = temp_path(&format!("test_{}", c.rank()));
            write_vtk(&m, &[("x", &f)], &path).expect("write ok");
            let content = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert!(content.starts_with("# vtk DataFile"));
            let ne = m.elements.len();
            assert!(content.contains(&format!("POINTS {} double", 8 * ne)));
            assert!(content.contains(&format!("CELL_TYPES {ne}")));
            assert!(content.contains("SCALARS x double 1"));
            assert!(content.contains("SCALARS level int 1"));
            // Point count consistency: POINTS line count parses.
            let lines = content.lines().count();
            assert!(lines > 8 * ne + ne);
        });
    }

    #[test]
    fn hanging_node_values_interpolated_in_output() {
        // A linear field written through corner_values must be linear at
        // every duplicated corner point, including hanging ones.
        spmd::run(1, |c| {
            let mut t = DistOctree::new_uniform(c, 1);
            t.refine(|o| o.child_id() == 0);
            t.balance(octree::balance::BalanceKind::Full);
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let mut f = vec![0.0; m.n_local()];
            for d in 0..m.n_owned {
                let p = m.dof_coords(d);
                f[d] = p[0] + 2.0 * p[1] - p[2];
            }
            let path = temp_path("hanging");
            write_vtk(&m, &[("lin", &f)], &path).unwrap();
            let content = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            // Parse points and values back and verify linearity.
            let mut lines = content.lines();
            for l in lines.by_ref() {
                if l.starts_with("POINTS") {
                    break;
                }
            }
            let ne = m.elements.len();
            let pts: Vec<[f64; 3]> = (0..8 * ne)
                .map(|_| {
                    let l = lines.next().unwrap();
                    let v: Vec<f64> = l.split_whitespace().map(|t| t.parse().unwrap()).collect();
                    [v[0], v[1], v[2]]
                })
                .collect();
            let vals_start = content.find("LOOKUP_TABLE default").unwrap();
            let vals: Vec<f64> = content[vals_start..]
                .lines()
                .skip(1)
                .take(8 * ne)
                .map(|l| l.trim().parse().unwrap())
                .collect();
            for (p, v) in pts.iter().zip(&vals) {
                let expect = p[0] + 2.0 * p[1] - p[2];
                assert!((v - expect).abs() < 1e-9, "at {p:?}: {v} vs {expect}");
            }
        });
    }
}
