-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'abs_energy'
-- data path: 5 nodes (3 soft, 2 hard), 2 pipeline stages
-- netlist: 13 cells, 37 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_node1 is
  port (
    X0 : in signed(11 downto 0);
    t3_out : out unsigned(0 downto 0)
  );
end entity abs_energy_dp_node1;

architecture rtl of abs_energy_dp_node1 is
  signal t3 : unsigned(0 downto 0);
begin
  t3 <= "1" when resize(X0, 13) < to_signed(0, 13) else "0";
  t3_out <= t3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_node2 is
  port (
    X0 : in signed(11 downto 0);
    t5_out : out signed(11 downto 0)
  );
end entity abs_energy_dp_node2;

architecture rtl of abs_energy_dp_node2 is
  signal t4 : signed(12 downto 0);
  signal t5 : signed(11 downto 0);
begin
  t4 <= to_signed(0, 13) - resize(X0, 13);
  t5 <= t4(11 downto 0);
  t5_out <= t5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_mux_bb3 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in signed(11 downto 0);
    t5 : in signed(11 downto 0);
    n9_pipe : in unsigned(0 downto 0);
    a_3_s1_out : out signed(11 downto 0)
  );
end entity abs_energy_dp_mux_bb3;

architecture rtl of abs_energy_dp_mux_bb3 is
  signal a_3 : signed(11 downto 0);
  signal a_3_s1 : signed(11 downto 0) := (others => '0');
begin
  a_3 <= t5 when n9_pipe /= 0 else X0_pipe;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        a_3_s1 <= a_3;
      end if;
    end if;
  end process;
  a_3_s1_out <= a_3_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_node4 is
  port (
    acc_prev_pipe : in signed(23 downto 0);
    a_3_s1 : in signed(11 downto 0);
    t8_out : out signed(23 downto 0)
  );
end entity abs_energy_dp_node4;

architecture rtl of abs_energy_dp_node4 is
  signal t7 : signed(24 downto 0);
  signal t8 : signed(23 downto 0);
begin
  t7 <= resize(acc_prev_pipe, 25) + resize(a_3_s1, 25);
  t8 <= t7(23 downto 0);
  t8_out <= t8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity abs_energy_dp_pipe_bb3 is
  port (
    X0 : in signed(11 downto 0);
    acc_reg : in signed(23 downto 0);
    t3 : in unsigned(0 downto 0);
    X0_pipe_out : out signed(11 downto 0);
    n9_pipe_out : out unsigned(0 downto 0);
    acc_prev_pipe_out : out signed(23 downto 0)
  );
end entity abs_energy_dp_pipe_bb3;

architecture rtl of abs_energy_dp_pipe_bb3 is
  signal X0_pipe : signed(11 downto 0);
  signal n9_pipe : unsigned(0 downto 0);
  signal acc_prev_pipe : signed(23 downto 0);
begin
  X0_pipe <= X0;
  n9_pipe <= t3;
  acc_prev_pipe <= acc_reg;
  X0_pipe_out <= X0_pipe;
  n9_pipe_out <= n9_pipe;
  acc_prev_pipe_out <= acc_prev_pipe;
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
  signal X0_pipe : signed(11 downto 0);
  signal t5 : signed(11 downto 0);
  signal t3 : unsigned(0 downto 0);
  signal n9_pipe : unsigned(0 downto 0);
  signal acc_prev_pipe : signed(23 downto 0);
  signal a_3_s1 : signed(11 downto 0);
  signal t8 : signed(23 downto 0);
  signal n2_valid : unsigned(0 downto 0);
  signal valid_s1 : unsigned(0 downto 0) := (others => '0');
  signal acc_reg : signed(23 downto 0) := (others => '0');
begin
  n2_valid <= "1" when valid = '1' else "0";
  u_node1 : entity work.abs_energy_dp_node1
    port map (X0 => X0, t3_out => t3);
  u_node2 : entity work.abs_energy_dp_node2
    port map (X0 => X0, t5_out => t5);
  u_mux_bb3 : entity work.abs_energy_dp_mux_bb3
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, t5 => t5, n9_pipe => n9_pipe, a_3_s1_out => a_3_s1);
  u_node4 : entity work.abs_energy_dp_node4
    port map (acc_prev_pipe => acc_prev_pipe, a_3_s1 => a_3_s1, t8_out => t8);
  u_pipe_bb3 : entity work.abs_energy_dp_pipe_bb3
    port map (X0 => X0, acc_reg => acc_reg, t3 => t3, X0_pipe_out => X0_pipe, n9_pipe_out => n9_pipe, acc_prev_pipe_out => acc_prev_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        valid_s1 <= n2_valid;
        if valid_s1 /= 0 then
          acc_reg <= t8;
        end if;
      end if;
    end if;
  end process;
  E_o0 <= t8;
  total <= t8;
end architecture rtl;
