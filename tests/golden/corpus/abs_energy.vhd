-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'abs_energy'
-- data path: 5 nodes (3 soft, 2 hard), 2 pipeline stages
-- netlist: 13 cells, 37 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_node1 is
  port (
    v0_X0 : in signed(11 downto 0);
    v1_acc_prev_out : out signed(23 downto 0);
    v2_t_out : out unsigned(0 downto 0);
    v3_t_out : out unsigned(0 downto 0)
  );
end entity abs_energy_dp_node1;

architecture rtl of abs_energy_dp_node1 is
  signal v1_acc_prev : signed(23 downto 0);
  signal v3_t : unsigned(0 downto 0);
begin
  v3_t <= "1" when resize(v0_X0, 13) < to_signed(0, 13) else "0";
  v1_acc_prev_out <= v1_acc_prev;
  v2_t_out <= v2_t;
  v3_t_out <= v3_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_node2 is
  port (
    v0_X0 : in signed(11 downto 0);
    v5_t_out : out signed(11 downto 0)
  );
end entity abs_energy_dp_node2;

architecture rtl of abs_energy_dp_node2 is
  signal v4_t : signed(12 downto 0);
  signal v5_t : signed(11 downto 0);
begin
  v4_t <= to_signed(0, 13) - resize(v0_X0, 13);
  v5_t <= resize(v4_t, 12);
  v5_t_out <= v5_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_mux_bb3 is
  port (
    v5_t : in signed(11 downto 0);
    v9_X0_pipe : in signed(11 downto 0);
    v11_pipe : in unsigned(0 downto 0);
    v6_a_3_out : out signed(11 downto 0)
  );
end entity abs_energy_dp_mux_bb3;

architecture rtl of abs_energy_dp_mux_bb3 is
  signal v6_a_3 : signed(11 downto 0);
begin
  v6_a_3 <= v5_t when v11_pipe = 1 else v9_X0_pipe;
  v6_a_3_out <= v6_a_3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_node4 is
  port (
    v6_a_3 : in signed(11 downto 0);
    v10_acc_prev_pipe : in signed(23 downto 0);
    v8_t_out : out signed(23 downto 0)
  );
end entity abs_energy_dp_node4;

architecture rtl of abs_energy_dp_node4 is
  signal v7_t : signed(24 downto 0);
  signal v8_t : signed(23 downto 0);
begin
  v7_t <= resize(v10_acc_prev_pipe, 25) + resize(v6_a_3, 25);
  v8_t <= resize(v7_t, 24);
  v8_t_out <= v8_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_pipe_bb3 is
  port (
    v0_X0 : in signed(11 downto 0);
    v1_acc_prev : in signed(23 downto 0);
    v3_t : in unsigned(0 downto 0);
    v9_X0_pipe_out : out signed(11 downto 0);
    v10_acc_prev_pipe_out : out signed(23 downto 0);
    v11_pipe_out : out unsigned(0 downto 0)
  );
end entity abs_energy_dp_pipe_bb3;

architecture rtl of abs_energy_dp_pipe_bb3 is
  signal v9_X0_pipe : signed(11 downto 0);
  signal v10_acc_prev_pipe : signed(23 downto 0);
  signal v11_pipe : unsigned(0 downto 0);
begin
  v9_X0_pipe <= v0_X0;
  v10_acc_prev_pipe <= v1_acc_prev;
  v11_pipe <= v3_t;
  v9_X0_pipe_out <= v9_X0_pipe;
  v10_acc_prev_pipe_out <= v10_acc_prev_pipe;
  v11_pipe_out <= v11_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    X0 : in signed(11 downto 0);
    E_o0 : out signed(23 downto 0);
    total : out signed(23 downto 0)
  );
end entity abs_energy_dp;

architecture rtl of abs_energy_dp is
  signal v1_acc_prev : signed(23 downto 0);
  signal v3_t : unsigned(0 downto 0);
  signal v5_t : signed(11 downto 0);
  signal v6_a_3 : signed(11 downto 0);
  signal v8_t : signed(23 downto 0);
  signal v9_X0_pipe : signed(11 downto 0);
  signal v10_acc_prev_pipe : signed(23 downto 0);
  signal v11_pipe : unsigned(0 downto 0);
  signal v6_a_3_p1 : signed(11 downto 0);
  signal acc_reg : signed(23 downto 0) := to_signed(0, 23 + 1);
  signal valid_s1 : std_logic := '0';
begin
  u_node1 : entity work.abs_energy_dp_node1
    port map (v0_X0 => X0, v1_acc_prev_out => v1_acc_prev, v2_t_out => v2_t, v3_t_out => v3_t);
  u_node2 : entity work.abs_energy_dp_node2
    port map (v0_X0 => X0, v5_t_out => v5_t);
  u_mux_bb3 : entity work.abs_energy_dp_mux_bb3
    port map (v5_t => v5_t, v9_X0_pipe => v9_X0_pipe, v11_pipe => v11_pipe, v6_a_3_out => v6_a_3);
  u_node4 : entity work.abs_energy_dp_node4
    port map (v6_a_3 => v6_a_3_p1, v10_acc_prev_pipe => v10_acc_prev_pipe, v8_t_out => v8_t);
  u_pipe_bb3 : entity work.abs_energy_dp_pipe_bb3
    port map (v0_X0 => X0, v1_acc_prev => v1_acc_prev, v3_t => v3_t, v9_X0_pipe_out => v9_X0_pipe, v10_acc_prev_pipe_out => v10_acc_prev_pipe, v11_pipe_out => v11_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v6_a_3_p1 <= v6_a_3;
        valid_s1 <= valid;
        if valid_s1 = '1' then
          acc_reg <= v8_t;
        end if;
      end if;
    end if;
  end process;
  v1_acc_prev <= acc_reg;
  E_o0 <= resize(v8_t, 24);
  total <= resize(v8_t, 24);
end architecture rtl;
