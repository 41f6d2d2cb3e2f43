package analysis

import (
	"go/ast"
	"go/types"
)

// WireRoundTrip guards the wire codec's completeness: when a message
// struct grows a field, both its encoder and its decoder must learn about
// it, or the field is silently dropped on one side of the link and the
// engines diverge without an error (exactly how Assign.EpsNum could have
// been lost when PR 4 extended the handshake). For every exported struct
// type in internal/wire that has an encoder (method Append) and a decoder
// (method Decode on the pointer, or else a package function Decode<Type> —
// beside a method such a function is a by-value wrapper of it), the
// analyzer requires every exported field to be referenced — as a selector
// or a composite-literal key — inside both bodies.
//
// A field that is deliberately one-directional (say, a receive-side cache
// populated outside the codec) is suppressed at its declaration with
// //lint:topk wireroundtrip <why the codec may skip it>.
var WireRoundTrip = &Analyzer{
	Name: "wireroundtrip",
	Doc:  "every exported field of a wire message must be referenced by both its encoder and its decoder",
	Run:  runWireRoundTrip,
}

func runWireRoundTrip(pass *Pass) error {
	if !scoped(pass, "wire") {
		return nil
	}

	encoders := make(map[*types.TypeName]*ast.FuncDecl)
	decoders := make(map[*types.TypeName]*ast.FuncDecl)
	structs := make(map[*types.TypeName]*ast.StructType)

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						structs[tn] = st
					}
				}
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				switch {
				case d.Recv != nil && d.Name.Name == "Append":
					if tn := receiverTypeName(pass, d); tn != nil {
						encoders[tn] = d
					}
				case d.Recv != nil && d.Name.Name == "Decode":
					if tn := receiverTypeName(pass, d); tn != nil {
						decoders[tn] = d
					}
				}
			}
		}
	}
	// Package-function decoders: func Decode<Type>(...) pairing by name.
	byName := make(map[string]*types.TypeName)
	for tn := range structs {
		byName["Decode"+tn.Name()] = tn
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if tn, ok := byName[fd.Name.Name]; ok && decoders[tn] == nil {
				decoders[tn] = fd
			}
		}
	}

	for tn, st := range structs {
		enc, decl := encoders[tn], decoders[tn]
		if enc == nil || decl == nil {
			continue // not a self-codec message type (e.g. wire.LevelIO)
		}
		encRefs := referencedFields(pass, enc)
		decRefs := referencedFields(pass, decl)
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				if !name.IsExported() {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if !encRefs[obj] {
					pass.Reportf(name.Pos(), "wire.%s.%s is never referenced by encoder %s.Append: the field is silently dropped on send", tn.Name(), name.Name, tn.Name())
				}
				if !decRefs[obj] {
					pass.Reportf(name.Pos(), "wire.%s.%s is never referenced by decoder %s: the field is silently dropped on receive", tn.Name(), name.Name, decl.Name.Name)
				}
			}
		}
	}
	return nil
}

// receiverTypeName resolves a method's receiver to its type name,
// unwrapping one level of pointer.
func receiverTypeName(pass *Pass, fd *ast.FuncDecl) *types.TypeName {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// referencedFields collects every struct-field object the function body
// mentions, through selectors (m.Lo) and composite-literal keys
// (Assign{Lo: x}) alike — both appear in Uses.
func referencedFields(pass *Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	refs := make(map[*types.Var]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.IsField() {
			refs[v] = true
		}
		return true
	})
	return refs
}
